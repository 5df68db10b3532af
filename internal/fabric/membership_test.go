package fabric

import "testing"

func newTestMembership(t *testing.T, n int) *Membership {
	t.Helper()
	m, err := NewMembership(ringTargets(n))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMembershipTransitions(t *testing.T) {
	m := newTestMembership(t, 3)
	w := ringTargets(3)[1]

	if dead := m.DeadSet(); len(dead) != 0 {
		t.Fatalf("fresh membership has dead members %v, want none", dead)
	}
	if !m.MarkDead(w, "connection refused") {
		t.Fatal("first MarkDead did not report a transition")
	}
	if m.MarkDead(w, "again") {
		t.Fatal("second MarkDead reported a transition")
	}
	if got := m.Reason(w); got != "connection refused" {
		t.Fatalf("Reason = %q (repeat MarkDead must not overwrite)", got)
	}
	if dead := m.DeadSet(); len(dead) != 1 || !dead[w] {
		t.Fatalf("DeadSet = %v, want {%s}", dead, w)
	}
	if !m.MarkLive(w) {
		t.Fatal("MarkLive on a dead worker did not report a transition")
	}
	if m.MarkLive(w) {
		t.Fatal("MarkLive on a live worker reported a transition")
	}
	if got := m.Reason(w); got != "" {
		t.Fatalf("Reason after revival = %q, want empty", got)
	}
	if len(m.DeadSet()) != 0 {
		t.Fatalf("DeadSet after revival = %v, want empty", m.DeadSet())
	}
}

func TestMembershipEpochCountsRevivals(t *testing.T) {
	m := newTestMembership(t, 2)
	w := ringTargets(2)[0]
	if got := m.Epoch(w); got != 0 {
		t.Fatalf("fresh epoch = %d, want 0", got)
	}
	for i := 1; i <= 3; i++ {
		m.MarkDead(w, "probe failed")
		m.MarkLive(w)
		if got := m.Epoch(w); got != i {
			t.Fatalf("epoch after %d bounce(s) = %d", i, got)
		}
	}
	if got := m.Epoch("http://nobody:1"); got != -1 {
		t.Fatalf("unknown target epoch = %d, want -1", got)
	}
}
