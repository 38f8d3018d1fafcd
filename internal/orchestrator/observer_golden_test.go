package orchestrator

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// observerECNConfig is a two-connection Write whose first connection has
// every eighth packet ECN-marked: the responder sends CNPs, the
// requester's DCQCN cuts and recovers its rate, and those counters and
// instants reach the timeline and metrics.
func observerECNConfig() config.Test {
	cfg := config.Default()
	cfg.Name = "observer-ecn-pin"
	cfg.Seed = 5
	cfg.Traffic.Verb = "write"
	cfg.Traffic.NumConnections = 2
	cfg.Traffic.NumMsgsPerQP = 4
	cfg.Traffic.Events = []config.Event{{QPN: 1, PSN: 2, Iter: 1, Type: "ecn", Every: 8}}
	return cfg
}

// TestObserverArtifactsGolden pins every artifact of two small runs with
// every observer on to literal digests: report.json, trace.pcap,
// metrics.json, timeline.json, summary.json, int.json and coverage.json.
// Comparing a run with a second run of the same binary cannot catch a
// change to an observer that moves these bytes the same way in both
// runs; this can. A change that means to move them must say why.
func TestObserverArtifactsGolden(t *testing.T) {
	opts := Options{Deadline: 600 * sim.Second, Telemetry: true, Lineage: true, INT: true, Coverage: true}
	for _, tc := range []struct {
		cfg   config.Test
		kinds []telemetry.Kind // probe families the run must record
		want  map[string]string
	}{
		{
			rcPinConfig(),
			[]telemetry.Kind{telemetry.KindRetransGBN, telemetry.KindRetransTimer},
			map[string]string{
				"report.json":   "970057d3571c50b5ef7f6da904233b7fd2c8bd4df83dcd4010e8c9cb75932a0d",
				"trace.pcap":    "ffe51c52a40ee3d28e126a08e0061a3ac894f5bc398b4e445be250cd06ed848d",
				"metrics.json":  "f8395e1582f34f1efb723a1fbcf1fb95a2a622aeb898d8bc3a5a5484e430e904",
				"timeline.json": "3786a357d538e4d53a6027f2a5426bd8f21b617f95ebeafd19f9c9bec1e962ff",
				"summary.json":  "51e4a6b5312993e6315dafc0f02e574181e57d57b14341b64bee3ef70d3945f1",
				"int.json":      "d739eb19f2462c69115e5afa81e8470c3bd743f566f88c4acc716ca49c7d60fa",
				"coverage.json": "8f353f628ff2bd4ed67162d1245d10cc26a256f75c1c48a652c9e1e722539b07",
			},
		},
		{
			observerECNConfig(),
			[]telemetry.Kind{telemetry.KindCNPGen, telemetry.KindDCQCNRate},
			map[string]string{
				"report.json":   "24a845dfd2e843b106ddad29220e84b3b1a2096bd7f48b74fee135f49bedeb61",
				"trace.pcap":    "e097c20d882d6b99b2a9eb3578093e59596ec9fa95ed8a45702032aabb80bd16",
				"metrics.json":  "174c96fa74ac4ba0dcdc9bb7bc141163345b2d9c0448c110acdd353e587aa202",
				"timeline.json": "08ab0bc07756eb82c3492ee0421c34235114c2792a7c3b009dcbabb83f7e70f5",
				"summary.json":  "2cfad82ab50cb189033317134121bbe0d0b3a28d3701e22a4568ef3985782ef0",
				"int.json":      "ec07b88e11b351c309f882fa8bf4a58316ed5f5f189ac90d6bb467b70d347ce1",
				"coverage.json": "f082a54b802bdbf3e41418afc6fae4961a6fdea871b450cfb3ff2d49f1615027",
			},
		},
	} {
		rep, err := Run(tc.cfg, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.cfg.Name, err)
		}
		for _, k := range tc.kinds {
			if !slices.ContainsFunc(rep.Events, func(e telemetry.Event) bool { return e.Kind() == k }) {
				t.Errorf("%s: no %s probe recorded", tc.cfg.Name, k)
			}
		}
		arts := rep.Artifacts()
		if len(arts) != 7 {
			t.Fatalf("%s: %d artifacts, want all 7", tc.cfg.Name, len(arts))
		}
		for _, a := range arts {
			sum := sha256.New()
			if err := a.Render(sum); err != nil {
				t.Fatalf("%s %s: %v", tc.cfg.Name, a.Name, err)
			}
			got := hex.EncodeToString(sum.Sum(nil))
			if got != tc.want[a.Name] {
				t.Errorf("%s %s: sha256 %s, want %s", tc.cfg.Name, a.Name, got, tc.want[a.Name])
			}
		}
	}
}
