package orchestrator

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"path/filepath"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// counterCells light every counter family metrics.json carries: two ETS
// queues, a CX4 pipeline wedge, injected drops, CNPs an E810 responder's
// limiter suppresses while its np_cnp_sent stays stuck, ring discards
// (the rss-rewrite ablation), dumpers no mirror reaches, a QP that
// exhausts its retries and the leaf-spine incast.
func counterCells(t *testing.T) []struct {
	name string
	cfg  config.Test
	sha  string // metrics.json
} {
	load := func(path ...string) config.Test {
		cfg, err := config.Load(filepath.Join(append([]string{"..", ".."}, path...)...))
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	e810 := config.Default()
	e810.Name = "e810-ecn-every-packet"
	e810.Responder.NIC.Type = "e810"
	e810.Traffic.NumMsgsPerQP = 4
	e810.Traffic.Events = []config.Event{{QPN: 1, PSN: 1, Iter: 1, Type: "ecn", Every: 1}}
	ablation := config.Default()
	ablation.Name = "rss-rewrite-off"
	ablation.Traffic.NumConnections = 1
	ablation.Traffic.NumMsgsPerQP = 160
	ablation.Traffic.MessageSize = 65536
	ablation.Traffic.TxDepth = 8
	ablation.Dumpers.RSSPortRewrite = false
	idle := config.Default()
	idle.Name = "idle-dumpers"
	idle.Traffic.MessageSize = 1024
	idle.Dumpers.Nodes = 8
	exhausted := config.Default()
	exhausted.Name = "retry-exceeded"
	exhausted.Traffic.NumConnections = 2
	exhausted.Traffic.NumMsgsPerQP = 2
	exhausted.Traffic.MinRetransmitTimeout = 8
	exhausted.Traffic.MaxRetransmitRetry = 1
	for iter := 1; iter <= 3; iter++ {
		exhausted.Traffic.Events = append(exhausted.Traffic.Events, config.Event{QPN: 1, PSN: 1, Iter: iter, Type: "drop"})
	}
	return []struct {
		name string
		cfg  config.Test
		sha  string
	}{
		{"ets-cx6", load("configs", "ets-cx6.yaml"), "9ac5f6889054343076c7512a3b9576ba2b5ea11bf7fb0d336e955fb3956e9f77"},
		{"noisy-neighbor", load("configs", "noisy-neighbor.yaml"), "e8f52705fa832d88e244ff939be7121e490b0c72531ae5a289fe2f849617b592"},
		{"listing2", load("configs", "listing2.yaml"), "ae53967189bdf02492b2991e879dd64eb124399445f8a48d8ff4a20aa7692027"},
		{e810.Name, e810, "a21b5847286c174535130f4fc2a12ea861e9de932a66e3f706cc1ef1595a6d26"},
		{ablation.Name, ablation, "292cb1170e35818586df5837e7cf46c53925e0f170a9fc127ad769816d99ece6"},
		{idle.Name, idle, "4c711ea048f1a0c9d590eaa1fa07188ccd70cd73e80f90816c804bc217489027"},
		{exhausted.Name, exhausted, "84074e829d5f6569d2c47cb674c422bd88d67de016d27b34248116fae3db1e8b"},
		{"incast", load("examples", "fabric_incast", "incast.yaml"), "a29e0d6c3ac100f10dd969c334a5eb6fa0fc3397813762c170528e8084ea1d17"},
	}
}

// TestCountersMatchTheirWitnesses holds every counter in metrics.json to
// a witness the counting code does not write: the NICs' own counter sets,
// the report's switch and dumper totals, and the timeline's probes. Each
// family must be non-zero in some cell, the names a component declares
// when it is built must be present even at zero, the counters bumped as
// things happen must be present only when non-zero, and each cell's
// metrics.json is pinned to its digest.
func TestCountersMatchTheirWitnesses(t *testing.T) {
	opts := Options{Telemetry: true, Lineage: true, INT: true, Coverage: true}
	lit := map[string]bool{}
	for _, c := range counterCells(t) {
		t.Run(c.name, func(t *testing.T) {
			tb, err := Build(c.cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := tb.Execute()
			if err != nil {
				t.Fatal(err)
			}
			counters := map[string]int64{}
			for _, m := range rep.Metrics.Counters {
				counters[m.Name] = m.Value
			}
			gauges := map[string]int64{}
			for _, m := range rep.Metrics.Gauges {
				gauges[m.Name] = m.Value
			}
			check := func(name string, got, want int64) {
				t.Helper()
				if got != want {
					t.Errorf("%s = %d, witness %d", name, got, want)
				}
				if got != 0 {
					lit[name] = true
				}
			}

			// Counted as things happen: present exactly when non-zero.
			var hits, drops, sent, suppressed, wedges int64
			maxSample := map[string]int64{}
			for i := range rep.Events {
				ev := &rep.Events[i]
				switch ev.Kind() {
				case telemetry.KindInjectHit:
					hits++
					if ev.Name() == "drop" {
						drops++
					}
				case telemetry.KindCNPGen:
					switch ev.Name() {
					case "send":
						sent++
					case "suppress":
						suppressed++
					}
				case telemetry.KindNICWedge:
					if ev.Dur > 0 {
						wedges++
					}
				case telemetry.KindDumperQueue:
					maxSample[ev.Track()] = max(maxSample[ev.Track()], ev.Arg(0).Val)
				}
			}
			var rx, discards uint64
			for _, ds := range rep.DumperStats {
				rx += ds.Rx
				discards += ds.Discards
			}
			tx := int64(rep.RequesterCounters[rnic.CtrTxRoCEPackets] + rep.ResponderCounters[rnic.CtrTxRoCEPackets])
			perEvent := map[string]int64{
				"nic.tx_packets":  tx,
				"dumper.rx":       int64(rx - discards),
				"dumper.discards": int64(discards),
				"switch.mirrored": int64(rep.SwitchTotals.Mirrored),
				"inject.hits":     hits,
				"inject.drops":    drops,
				"cnp.sent":        sent,
				"cnp.suppressed":  suppressed,
				"nic.wedges":      wedges,
			}
			for name, want := range perEvent {
				got, ok := counters[name]
				check(name, got, want)
				if ok != (want != 0) {
					t.Errorf("%s present = %v with witness %d: want it present exactly when non-zero", name, ok, want)
				}
			}
			if suppressed > 0 && c.cfg.Responder.NIC.Type == "e810" && rep.ResponderCounters[rnic.CtrNpCnpSent] != 0 {
				t.Errorf("E810 responder's np_cnp_sent = %d: the stuck counter moved", rep.ResponderCounters[rnic.CtrNpCnpSent])
			}

			// Named when their component is built: present even at zero.
			var spray int64
			for _, ds := range rep.DumperStats {
				track := fmt.Sprintf("dumper-%d", ds.Node)
				v, ok := counters["switch.spray."+track]
				if !ok {
					t.Errorf("switch.spray.%s missing", track)
				}
				if v == 0 {
					lit["switch.spray at zero"] = true
				}
				spray += v
				peak, ok := gauges[track+".ring_peak"]
				if !ok {
					t.Errorf("%s.ring_peak missing", track)
				}
				// A ring_occupancy sample is taken whenever the occupancy
				// enters another log2 bucket, so the peak lies in the
				// bucket of the deepest sample, at or above it.
				if s := maxSample[track]; peak < s || bits.Len64(uint64(peak)) != bits.Len64(uint64(s)) {
					t.Errorf("%s.ring_peak = %d, deepest ring_occupancy sample %d", track, peak, s)
				}
				check("ring_peak", peak, peak)
			}
			check("switch.spray", spray, int64(rep.SwitchTotals.Mirrored))

			var grants, bytes int64
			for i, h := range tb.topo.hosts {
				for q := range max(len(h.tmpl.ETS), 1) {
					name := fmt.Sprintf("%s/ets.q%d", tb.Hosts[i].Name, q)
					g, ok := counters[name+".grants"]
					b, ok2 := counters[name+".bytes"]
					if !ok || !ok2 {
						t.Errorf("%s.grants/.bytes missing", name)
					}
					grants += g
					bytes += b
				}
			}
			// A Write requester sends only what its scheduler grants, and
			// a responder's ACKs and CNPs go around its scheduler.
			if c.cfg.Traffic.Verb == "write" {
				check("ets.grants", grants, int64(rep.RequesterCounters[rnic.CtrTxRoCEPackets]))
				check("ets.bytes", bytes, int64(rep.RequesterCounters[rnic.CtrTxRoCEBytes]))
			}

			for _, a := range rep.Artifacts() {
				if a.Name != MetricsName {
					continue
				}
				sum := sha256.New()
				if err := a.Render(sum); err != nil {
					t.Fatal(err)
				}
				if got := hex.EncodeToString(sum.Sum(nil)); got != c.sha {
					t.Errorf("metrics.json sha256 %s, want %s", got, c.sha)
				}
			}
		})
	}
	for _, name := range []string{"nic.tx_packets", "dumper.rx", "dumper.discards", "switch.mirrored", "inject.hits", "inject.drops",
		"cnp.sent", "cnp.suppressed", "nic.wedges", "ring_peak", "switch.spray", "switch.spray at zero", "ets.grants", "ets.bytes"} {
		if !lit[name] {
			t.Errorf("%s is zero in every cell", name)
		}
	}
}
