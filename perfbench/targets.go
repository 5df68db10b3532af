package main

// hotTarget is one endpoint x format request of the serve-hot mix.
type hotTarget struct {
	name   string
	method string
	path   string
	body   []byte
	binary bool // the body is internal/wire tables
	ndjson bool // the body is an NDJSON campaign stream
	// points is the campaign grid size for campaign targets, else 0.
	points int
}

// hotTargets is cmd/sg2042load's default target mix: every endpoint
// family and format over the experiment, machine, report, sweep and
// campaign endpoints, with the same small fixed POST bodies.
func hotTargets() []hotTarget {
	sweep := []byte(`{"machine": "SG2042", "axis": "cores", "values": [32, 64], "threads": 8}`)
	campaign := []byte(hotCampaignBody)
	return []hotTarget{
		{name: "experiment-figure1-text", method: "GET", path: "/v1/experiments/figure1?format=text"},
		{name: "experiment-figure1-json", method: "GET", path: "/v1/experiments/figure1?format=json"},
		{name: "experiment-figure1-binary", method: "GET", path: "/v1/experiments/figure1?format=binary", binary: true},
		{name: "experiment-table2-csv", method: "GET", path: "/v1/experiments/table2?format=csv"},
		{name: "experiment-all-binary", method: "GET", path: "/v1/experiments/all?format=binary", binary: true},
		{name: "machines-json", method: "GET", path: "/v1/machines"},
		{name: "roofline-SG2042-text", method: "GET", path: "/v1/roofline/SG2042"},
		{name: "roofline-SG2042-binary", method: "GET", path: "/v1/roofline/SG2042?format=binary", binary: true},
		{name: "cluster-SG2042-text", method: "GET", path: "/v1/cluster/SG2042"},
		{name: "sweep-cores-json", method: "POST", path: "/v1/sweep?format=json", body: sweep},
		{name: "sweep-cores-binary", method: "POST", path: "/v1/sweep?format=binary", body: sweep, binary: true},
		{name: "campaign-clock-json", method: "POST", path: "/v1/campaign?format=json", body: campaign, points: hotCampaignPoints},
		{name: "campaign-ndjson", method: "POST", path: "/v1/campaign?format=ndjson", body: campaign, ndjson: true, points: hotCampaignPoints},
		{name: "campaign-binary", method: "POST", path: "/v1/campaign?format=binary", body: campaign, binary: true, points: hotCampaignPoints},
	}
}

// hotCampaignBody is the mix's 2-point campaign spec.
const (
	hotCampaignBody   = `{"machines": ["SG2042"], "axes": [{"axis": "clock", "values": [1.5, 2.0]}], "threads": [8]}`
	hotCampaignPoints = 2
)
