package rnic

import (
	"net/netip"
	"testing"

	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
)

// TestReservedRecordsAreDistinct builds two traffic pairs the way a
// fabric does, two requesters sharing one responder, each pair reserving
// its QPs, memory regions and work requests before creating them. Every
// QP and memory region must be a record of its own that its NIC's
// tables resolve to, and a QP that outgrows its reserved work requests
// must leave the next QP's untouched.
func TestReservedRecordsAreDistinct(t *testing.T) {
	const conns, msgs = 3, 2
	s := sim.New(1)
	prof := Profiles()[ModelSpec]
	nic := func(i byte) *NIC {
		n := New(s, prof, Config{
			Name: string('a' + i), MAC: packet.MAC{2, 0, 0, 0, 0, i},
			IPs: []netip.Addr{netip.AddrFrom4([4]byte{10, 0, 0, i})}, Set: DefaultSettings(),
		})
		port, sink := sim.Connect(s, n.Name, n.Name+"-sink", prof.LinkGbps, 100)
		n.AttachPort(port)
		sink.SetReceiver(func([]byte) {})
		return n
	}
	resp := nic(0)
	seen := map[*QP]bool{}
	mrs := map[*mrState]bool{}
	var reqQPs []*QP
	for p := byte(1); p <= 2; p++ {
		req := nic(p)
		req.Reserve(conns, 0, msgs)
		resp.Reserve(conns, conns, 0)
		for range conns {
			rq := req.CreateQP(QPConfig{MTU: 1024})
			sq := resp.CreateQP(QPConfig{MTU: 1024})
			rq.Connect(sq.Local())
			sq.Connect(rq.Local())
			mr := resp.RegisterMR(4096)
			for _, qp := range []*QP{rq, sq} {
				if seen[qp] {
					t.Fatalf("pair %d: QP %#x handed out twice", p, qp.QPN)
				}
				seen[qp] = true
				if got := qp.nic.qps[qp.QPN]; got != qp {
					t.Fatalf("pair %d: %s resolves QPN %#x to another record", p, qp.nic.Name, qp.QPN)
				}
			}
			st := resp.mrs[mr.RKey]
			if st == nil || st.MR != mr || mrs[st] {
				t.Fatalf("pair %d: rkey %#x resolves to %+v, want a record of its own holding %+v", p, mr.RKey, st, mr)
			}
			mrs[st] = true
			reqQPs = append(reqQPs, rq)
		}
	}
	if len(resp.qps) != 2*conns || len(resp.mrs) != 2*conns {
		t.Fatalf("responder holds %d QPs and %d MRs, want %d each", len(resp.qps), len(resp.mrs), 2*conns)
	}
	// Two more work requests than the first QP reserved, then the
	// second QP's.
	post := func(qp *QP, n int) {
		for i := range n {
			if err := qp.PostSend(WorkRequest{WRID: i, Verb: VerbWrite, Length: 1024, RemoteAddr: 1 << 32, RKey: 0x1001}); err != nil {
				t.Fatal(err)
			}
		}
	}
	post(reqQPs[0], msgs+2)
	post(reqQPs[1], msgs)
	for i, qp := range reqQPs[:2] {
		for j, w := range qp.wqes {
			if w.req.WRID != j || w.startPSN != psnAdd(qp.IPSN, uint32(j)) {
				t.Fatalf("QP %d's WQE %d is WRID %d at PSN %d, want WRID %d at %d", i, j, w.req.WRID, w.startPSN, j, psnAdd(qp.IPSN, uint32(j)))
			}
		}
	}
}
