package lumina_test

import (
	"fmt"

	lumina "github.com/lumina-sim/lumina"
)

// ExampleRun drops one packet of a Write and reads the Go-back-N
// recovery out of the reconstructed trace.
func ExampleRun() {
	cfg := lumina.DefaultConfig()
	cfg.Traffic.MessageSize = 10240 // 10 packets at MTU 1024
	cfg.Traffic.Events = []lumina.Event{
		{QPN: 1, PSN: 5, Type: "drop", Iter: 1},
	}
	rep, err := lumina.Run(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("integrity:", rep.IntegrityOK)
	fmt.Println("messages OK:", rep.Traffic.Conns[0].Statuses["OK"])
	drops := 0
	for _, e := range rep.Trace.Entries {
		if e.Meta().Event == 2 { // 2 = drop
			drops++
		}
	}
	fmt.Println("drops in trace:", drops)
	// Output:
	// integrity: true
	// messages OK: 1
	// drops in trace: 1
}

// ExampleCheckGoBackN validates a trace against the Go-back-N
// specification.
func ExampleCheckGoBackN() {
	cfg := lumina.DefaultConfig()
	cfg.Traffic.Events = []lumina.Event{{QPN: 1, PSN: 3, Type: "drop", Iter: 1}}
	rep, _ := lumina.Run(cfg)
	gbn := lumina.CheckGoBackN(rep.Trace)
	fmt.Println("gaps:", gbn.Events, "violations:", len(gbn.Violations))
	// Output:
	// gaps: 1 violations: 0
}

// ExampleAnalyzeRetransmissions extracts the Figure-5 latency breakdown.
func ExampleAnalyzeRetransmissions() {
	cfg := lumina.DefaultConfig()
	cfg.Requester.NIC.Type = lumina.ModelCX5
	cfg.Responder.NIC.Type = lumina.ModelCX5
	cfg.Traffic.MessageSize = 102400
	cfg.Traffic.Events = []lumina.Event{{QPN: 1, PSN: 40, Type: "drop", Iter: 1}}
	rep, _ := lumina.Run(cfg)
	evs := lumina.AnalyzeRetransmissions(rep.Trace)
	fmt.Println("events:", len(evs), "timeout recovery:", evs[0].Timeout)
	fmt.Println("fast path:", evs[0].GenLatency() < 1e6 && evs[0].ReactLatency() < 1e6) // < 1ms
	// Output:
	// events: 1 timeout recovery: false
	// fast path: true
}

// ExampleParseConfig loads the paper's YAML schema.
func ExampleParseConfig() {
	cfg, err := lumina.ParseConfig([]byte(`
traffic:
  num-connections: 2
  rdma-verb: read
  message-size: 20480
  data-pkt-events:
    - {qpn: 1, psn: 5, type: drop, iter: 1}
`))
	if err != nil {
		panic(err)
	}
	fmt.Println(cfg.Traffic.NumConnections, cfg.Traffic.Verb, cfg.Traffic.Events[0].PSN)
	// Output:
	// 2 read 5
}
