package sim

import "testing"

// TestFrameOwnershipAcrossShards pins how a frame's ownership crosses a
// link. An owned pool frame is never copied: the peer's receiver gets the
// very buffer with owned == true, on the same shard or another, and what
// it releases lands in the pool of the shard it runs on — the sending
// shard's pool simply misses. A frame sent with plain Send stays the
// caller's: owned == false, same bytes, and nothing adopts it.
func TestFrameOwnershipAcrossShards(t *testing.T) {
	f := NewFabric(1, 2, 2)
	a, b := f.Connect(0, 1, "a", "b", 100, 500)
	src, dst := f.Node(0), f.Node(1)

	frame := src.GetFrame(64)
	for i := range frame {
		frame[i] = byte(i)
	}
	mine := make([]byte, 64)

	var gotOwned, gotMine bool
	b.SetFrameReceiver(func(data []byte, owned bool) {
		switch &data[0] {
		case &frame[0]:
			gotOwned = true
			if !owned {
				t.Error("owned frame arrived cross-shard as unowned")
			}
			if data[0] != 0 || data[63] != 63 {
				t.Errorf("owned frame corrupted in flight: [0]=%d [63]=%d", data[0], data[63])
			}
			dst.PutFrame(data)
		case &mine[0]:
			gotMine = true
			if owned {
				t.Error("caller-owned buffer arrived as an owned frame")
			}
		default:
			t.Error("cross-shard delivery copied the frame")
		}
	})
	a.SendFrame(frame, true)
	a.Send(mine)
	f.Run()
	if !gotOwned || !gotMine {
		t.Fatalf("delivered owned=%v caller-owned=%v, want both", gotOwned, gotMine)
	}
	if got := dst.GetFrame(64); &got[0] != &frame[0] {
		t.Error("frame released on the receiving shard did not enter that shard's pool")
	}
	if got := src.GetFrame(64); &got[0] == &frame[0] || &got[0] == &mine[0] {
		t.Error("sending shard's pool handed out a frame it no longer owns")
	}

	// Intra-shard: the same contract without the envelope.
	c, d := Connect(src, "c", "d", 100, 0)
	frame2 := src.GetFrame(64)
	seen := 0
	d.SetFrameReceiver(func(data []byte, owned bool) {
		seen++
		if owned != (&data[0] == &frame2[0]) {
			t.Errorf("intra-shard delivery %d: owned=%v", seen, owned)
		}
	})
	c.SendFrame(frame2, true)
	c.Send(mine)
	f.Run()
	if seen != 2 {
		t.Fatalf("intra-shard link delivered %d of 2 frames", seen)
	}
}

// TestFramePoolClassesAndBound checks the pool's two promises: a request
// is never served by a smaller frame (and a too-small frame is not
// thrown away to serve it — it stays for the next request it fits), and
// a class retains at most frameClassMax frames.
func TestFramePoolClassesAndBound(t *testing.T) {
	s := New(1)
	small := s.GetFrame(62)
	if len(small) != 62 || cap(small) != frameQuantum {
		t.Fatalf("GetFrame(62) = len %d cap %d, want 62 / %d", len(small), cap(small), frameQuantum)
	}
	s.PutFrame(small)
	big := s.GetFrame(1082)
	if &big[0] == &small[0] || cap(big) < 1082 {
		t.Fatal("a 1082-byte request was served from the 64-byte class")
	}
	if again := s.GetFrame(40); &again[0] != &small[0] {
		t.Error("the small frame was dropped while serving a larger request")
	}
	if huge := s.GetFrame(frameClasses * frameQuantum); cap(huge) != len(huge) {
		t.Error("frames beyond the largest class must be allocated exactly")
	}
	s.PutFrame(make([]byte, frameClasses*frameQuantum)) // beyond the classes: dropped, no panic

	for i := 0; i < frameClassMax+10; i++ {
		s.PutFrame(make([]byte, 1082, 1088))
	}
	if n := len(s.frames[1088/frameQuantum]); n != frameClassMax {
		t.Errorf("class retained %d frames, want the bound %d", n, frameClassMax)
	}
}

// TestPoisonReleasedFrames checks the use-after-release hook fills a
// released frame's whole capacity.
func TestPoisonReleasedFrames(t *testing.T) {
	defer PoisonReleasedFrames(PoisonReleasedFrames(true))
	s := New(1)
	buf := s.GetFrame(100)
	s.PutFrame(buf)
	for i, v := range buf[:cap(buf)] {
		if v != 0xDB {
			t.Fatalf("byte %d of a released frame is %#x, want 0xDB", i, v)
		}
	}
}

// TestFabricMatchesSingleSimulator runs the same two-node ping-pong on
// a 2-shard fabric and on one simulator and requires identical virtual
// end times and event counts — the sharded loop is an implementation
// detail, not a semantic change.
func TestFabricMatchesSingleSimulator(t *testing.T) {
	run := func(a, b *Port, drain func() Time) (Time, uint64) {
		const rounds = 50
		n := 0
		b.SetReceiver(func(data []byte) { b.Send(append([]byte(nil), data...)) })
		a.SetReceiver(func(data []byte) {
			n++
			if n < rounds {
				a.Send(append([]byte(nil), data...))
			}
		})
		a.Send(make([]byte, 1000))
		return drain(), uint64(n)
	}

	f := NewFabric(7, 2, 2)
	fa, fb := f.Connect(0, 1, "a", "b", 100, 700)
	fEnd, fRounds := run(fa, fb, f.Run)

	s := New(7)
	sa, sb := Connect(s, "a", "b", 100, 700)
	sEnd, sRounds := run(sa, sb, s.Run)

	if fEnd != sEnd || fRounds != sRounds {
		t.Fatalf("fabric (end=%v rounds=%d) diverged from single simulator (end=%v rounds=%d)",
			fEnd, fRounds, sEnd, sRounds)
	}
	if f.PendingMessages() != 0 {
		t.Fatalf("fabric drained with %d undelivered cross-shard messages", f.PendingMessages())
	}
}

// BenchmarkEventBatch measures draining a 64-event same-timestamp
// burst — the shape the batch executor optimizes (one heap sift per
// event, callbacks run after the whole run is popped). Allocation-free
// at steady state; the perfgate workload event_batch budgets it.
func BenchmarkEventBatch(b *testing.B) {
	s := New(1)
	fn := func() {}
	const burst = 64
	for i := 0; i < burst; i++ {
		s.After(1, fn)
	}
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			s.After(1, fn)
		}
		s.Run()
	}
}
