package analyzer_test

import (
	"testing"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/packet"
)

func TestSilentLossCleanDropStaysSilent(t *testing.T) {
	b := &traceBuilder{}
	b.add(writePkt(100, packet.OpWriteFirst), packet.EventNone)
	b.add(writePkt(101, packet.OpWriteMiddle), packet.EventDrop)
	b.add(writePkt(102, packet.OpWriteMiddle), packet.EventNone)
	b.add(writePkt(103, packet.OpWriteLast), packet.EventNone)
	losses := analyzer.AnalyzeSilentLoss(b.build(), map[uint32]bool{0x22: true})
	if len(losses) != 1 {
		t.Fatalf("%d losses, want 1", len(losses))
	}
	if l := losses[0]; !l.Silent() || l.PSN != 101 {
		t.Fatalf("loss = %+v, want silent at PSN 101", l)
	}
}

func TestSilentLossFlagsRetransmissionAndNak(t *testing.T) {
	// RC-style recovery on a supposedly-unreliable QP: both anomalies.
	b := &traceBuilder{}
	b.add(writePkt(100, packet.OpWriteFirst), packet.EventNone)
	b.add(writePkt(101, packet.OpWriteMiddle), packet.EventDrop)
	b.add(writePkt(102, packet.OpWriteMiddle), packet.EventNone)
	b.add(nakPkt(101), packet.EventNone)
	b.add(writePkt(101, packet.OpWriteMiddle), packet.EventNone)
	losses := analyzer.AnalyzeSilentLoss(b.build(), map[uint32]bool{0x22: true})
	if len(losses) != 1 {
		t.Fatalf("%d losses, want 1", len(losses))
	}
	l := losses[0]
	if l.Silent() || !l.Retransmitted || !l.NAKed {
		t.Fatalf("loss = %+v, want Retransmitted and NAKed", l)
	}
}

func TestSilentLossIgnoresReliableQPs(t *testing.T) {
	b := &traceBuilder{}
	b.add(writePkt(101, packet.OpWriteMiddle), packet.EventDrop)
	if got := analyzer.AnalyzeSilentLoss(b.build(), map[uint32]bool{0x99: true}); len(got) != 0 {
		t.Fatalf("drop on QP outside the unreliable set reported: %v", got)
	}
	if got := analyzer.AnalyzeSilentLoss(b.build(), nil); got != nil {
		t.Fatalf("nil set produced losses: %v", got)
	}
}

func TestVerdictsWithUnreliableSetAddsSilentLossVerdict(t *testing.T) {
	b := &traceBuilder{}
	b.add(writePkt(100, packet.OpWriteFirst), packet.EventNone)
	b.add(writePkt(101, packet.OpWriteMiddle), packet.EventDrop)
	b.add(writePkt(102, packet.OpWriteLast), packet.EventNone)
	tr := b.build()

	plain := analyzer.VerdictsWith(tr, nil, analyzer.VerdictOptions{})
	if len(plain) != 4 {
		t.Fatalf("RC verdict count = %d, want 4", len(plain))
	}
	// The drop never recovers, so all-RC interpretation fails retrans...
	for _, v := range plain {
		if v.Analyzer == "retrans" && v.Pass {
			t.Error("unrecovered RC drop passed the retrans verdict")
		}
	}

	// ...but with the QP declared unreliable the drop moves to the
	// silent-loss verdict and retrans sees zero drops.
	with := analyzer.VerdictsWith(tr, nil,
		analyzer.VerdictOptions{UnreliableQPNs: map[uint32]bool{0x22: true}})
	if len(with) != 5 {
		t.Fatalf("unreliable verdict count = %d, want 5", len(with))
	}
	for _, v := range with {
		if !v.Pass {
			t.Errorf("%s verdict failed: %s", v.Analyzer, v.Reason)
		}
	}
	if with[3].Analyzer != "silent-loss" {
		t.Errorf("fourth verdict is %q, want silent-loss", with[3].Analyzer)
	}
}
