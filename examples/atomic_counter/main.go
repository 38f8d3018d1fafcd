// Atomic counter: exercise the RC atomic verbs (compare-and-swap and
// fetch-and-add) directly on the simulated NIC pair, including the
// exactly-once guarantee under acknowledgement loss — the replay-cache
// behaviour the InfiniBand spec requires and real RNICs implement.
//
// This uses the transport layer below the Lumina orchestrator: two NICs
// wired through a minimal lossy relay, the same substrate the test
// harness drives.
//
// Run with: go run ./examples/atomic_counter
package main

import (
	"fmt"
	"log"
	"net/netip"

	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
)

func main() {
	s := sim.New(1)
	prof, err := rnic.ProfileByName(rnic.ModelCX5)
	if err != nil {
		log.Fatal(err)
	}
	a := rnic.New(s, prof, rnic.Config{
		Name: "requester", MAC: packet.MAC{2, 0, 0, 0, 0, 1},
		IPs: []netip.Addr{netip.MustParseAddr("10.0.0.1")},
		Set: rnic.DefaultSettings(),
	})
	b := rnic.New(s, prof, rnic.Config{
		Name: "responder", MAC: packet.MAC{2, 0, 0, 0, 0, 2},
		IPs: []netip.Addr{netip.MustParseAddr("10.0.0.2")},
		Set: rnic.DefaultSettings(),
	})

	// A relay that drops the first atomic acknowledgement, forcing a
	// retransmission the responder must answer from its replay cache.
	pa, ra := sim.Connect(s, "a", "relay-a", prof.LinkGbps, 100)
	rb, pb := sim.Connect(s, "relay-b", "b", prof.LinkGbps, 100)
	a.AttachPort(pa)
	b.AttachPort(pb)
	droppedOnce := false
	forward := func(out *sim.Port) func([]byte) {
		return func(w []byte) {
			if v, err := packet.ParseFrame(w); err == nil &&
				v.Opcode() == packet.OpAtomicAcknowledge && !droppedOnce {
				droppedOnce = true
				fmt.Println("relay: dropping the first atomic acknowledgement")
				return
			}
			out.Send(w)
		}
	}
	ra.SetReceiver(forward(rb))
	rb.SetReceiver(forward(ra))

	cfg := rnic.QPConfig{MTU: 1024, TimeoutExp: 8, RetryCnt: 7}
	qa := a.CreateQP(cfg)
	qb := b.CreateQP(cfg)
	qa.Connect(qb.Local())
	qb.Connect(qa.Local())

	// The responder owns the counter cell.
	mr := b.RegisterMR(4096)
	b.WriteMR(mr.RKey, mr.Addr, 1000)

	// Ten fetch-adds of +1, then a compare-and-swap that resets the
	// counter to zero if it reads the expected final value.
	for i := 0; i < 10; i++ {
		i := i
		err := qa.PostSend(rnic.WorkRequest{
			WRID: i, Verb: rnic.VerbFetchAdd,
			RemoteAddr: mr.Addr, RKey: mr.RKey, SwapAdd: 1,
			OnComplete: func(c rnic.Completion) {
				fmt.Printf("fetch-add #%d: status=%v original=%d (at %v)\n",
					i, c.Status, c.AtomicOrig, c.CompletedAt)
			},
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	qa.PostSend(rnic.WorkRequest{
		WRID: 99, Verb: rnic.VerbCompSwap,
		RemoteAddr: mr.Addr, RKey: mr.RKey, Compare: 1010, SwapAdd: 0,
		OnComplete: func(c rnic.Completion) {
			fmt.Printf("cmp-swap(1010→0): status=%v original=%d\n", c.Status, c.AtomicOrig)
		},
	})

	s.Run()
	final, _ := b.ReadMR(mr.RKey, mr.Addr)
	fmt.Printf("final counter value: %d (exactly-once despite the dropped ack)\n", final)
	fmt.Printf("responder duplicate_request counter: %d\n",
		b.Counters.Get(rnic.CtrDuplicateReq))
}
