package harness

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"pmnet"
	"pmnet/internal/netsim"
	"pmnet/internal/sim"
)

// equivalenceCases pins the default (Shards == 0) route to the numbers the
// deleted single-engine builder and its closed-loop driver produced: each
// want string was recorded at the last commit that still had them (PR 11,
// 3fe29c5) and the one-partition fabric must reproduce it exactly. A case
// covers the measurement window, the latency histogram, the virtual end time
// and a hash of every counter outside the sim.* namespace (which the old
// route did not register). The counter hashes were re-derived once, when the
// devN.pm.dirty_lines counters (0 in every run) left the registry: each is
// the recorded counter text without those lines.
var equivalenceCases = []struct {
	name string
	cfg  RunConfig
	want string
}{
	{
		name: "star-pmnet-switch-64",
		cfg: RunConfig{Design: pmnet.PMNetSwitch, Workload: WLIdeal, Clients: 64,
			Requests: 150, Warmup: 20, ValueSize: 1000, UpdateRatio: 1, Seed: 1},
		want: "n=9600 min=19252 max=91693 p50=54784 p90=60928 p99=70656 p99.9=80896 start=1035203 end=9446011 now=14423425 counters=7e52b18cc7c65346",
	},
	{
		name: "client-server-64",
		cfg: RunConfig{Design: pmnet.ClientServer, Workload: WLIdeal, Clients: 64,
			Requests: 150, Warmup: 20, ValueSize: 50, UpdateRatio: 1, Seed: 2},
		want: "n=9600 min=48163 max=188341 p50=62976 p90=78848 p99=101376 p99.9=133120 start=1229456 end=11503305 now=11503305 counters=a160c296177aab0f",
	},
	{
		name: "btree-cache-zipfian-reads",
		cfg: RunConfig{Design: pmnet.PMNetSwitch, Workload: WLBTree, Clients: 16,
			Requests: 300, Warmup: 20, UpdateRatio: 0.5, Zipfian: true, CacheSize: 512,
			Keys: 5000, Seed: 3},
		want: "n=4800 min=15615 max=122420 p50=22784 p90=68608 p99=87040 p99.9=109568 start=606917 end=10763042 now=15753986 counters=8b2b41b2d35b58c6",
	},
	{
		name: "open-loop-retwis",
		cfg: RunConfig{Design: pmnet.PMNetSwitch, Workload: WLTwitter, Clients: 8,
			OfferedLoad: 100000, Duration: 20 * sim.Millisecond, Users: 100000,
			UpdateRatio: 0.4, RetryBackoff: true, Seed: 4},
		want: "n=1582 min=34223 max=326073 p50=174080 p90=206848 p99=243712 p99.9=282624 start=4000000 end=20000000 now=25066429 counters=5e030a196a5a5118",
	},
	{
		name: "leaf-spine-repl3-lossy",
		cfg: RunConfig{Design: pmnet.PMNetSwitch, Workload: WLIdeal, Clients: 32,
			Requests: 150, Warmup: 20, ValueSize: 1000, UpdateRatio: 1, Replication: 3,
			Topology: "leaf-spine", Impair: netsim.Impairments{GoodLoss: 0.02},
			Timeout: 200 * sim.Microsecond, Seed: 5},
		want: "n=4800 min=33721 max=321374 p50=40448 p90=52736 p99=239616 p99.9=282624 start=831863 end=8986536 now=13968750 counters=26e3ee2430c4264d",
	},
	{
		name: "cross-traffic",
		cfg: RunConfig{Design: pmnet.PMNetSwitch, Workload: WLIdeal, Clients: 8,
			Requests: 150, Warmup: 20, ValueSize: 1000, UpdateRatio: 1,
			CrossTrafficGbps: 4, Seed: 6},
		want: "n=1200 min=17569 max=56035 p50=23808 p90=30464 p99=40448 p99.9=50688 start=481936 end=4329703 now=9307117 counters=0e3af706b6e73720",
	},
}

// equivalenceDigest renders everything a case compares.
func equivalenceDigest(res *RunResult) (digest, counters string) {
	var b strings.Builder
	for _, s := range res.Bed.Counters().Snapshot() {
		if !strings.HasPrefix(s.Name, "sim.") {
			fmt.Fprintf(&b, "%s=%d\n", s.Name, s.Value)
		}
	}
	counters = b.String()
	h := res.Run.Hist
	sum := sha256.Sum256([]byte(counters))
	return fmt.Sprintf("n=%d min=%d max=%d p50=%d p90=%d p99=%d p99.9=%d start=%d end=%d now=%d counters=%x",
		h.Count(), h.Min(), h.Max(), h.Percentile(50), h.Percentile(90), h.Percentile(99),
		h.Percentile(99.9), res.Run.Start, res.Run.End, res.Bed.Now(), sum[:8]), counters
}

// TestDefaultRouteMatchesSingleEngine: the one-partition fabric decides what
// the single-engine route decided, to the nanosecond and the counter.
func TestDefaultRouteMatchesSingleEngine(t *testing.T) {
	for _, tc := range equivalenceCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, counters := equivalenceDigest(res)
			if got != tc.want {
				t.Errorf("got  %s\nwant %s\ncounters:\n%s", got, tc.want, counters)
			}
		})
	}
}
