package sim

import (
	"crypto/sha256"
	"sync"
	"testing"
)

// TestReceiverReleasedFrameIsSendersNextGet pins how a frame crosses a
// link and where a released frame goes. A pool frame sent with SendFrame
// is never copied: the peer's frame receiver gets the very buffer, and
// once it releases it the frame is the next one of its class the sender
// is handed — one pool serves both ends of every link. Bytes sent with
// Send arrive as a pool frame of their own, never as the caller's
// buffer, and a receiver installed with SetReceiver only borrows its
// frame: the port releases it when the receiver returns.
func TestReceiverReleasedFrameIsSendersNextGet(t *testing.T) {
	s := New(1)
	a, b := Connect(s, "a", "b", 100, 500)

	frame := s.GetFrame(64)
	for i := range frame {
		frame[i] = byte(i)
	}
	var got []byte
	b.SetFrameReceiver(func(data []byte) { got = data })
	a.SendFrame(frame)
	s.Run()
	if &got[0] != &frame[0] {
		t.Fatal("delivery copied a pool frame")
	}
	if got[0] != 0 || got[63] != 63 {
		t.Errorf("frame corrupted in flight: [0]=%d [63]=%d", got[0], got[63])
	}
	s.PutFrame(got)
	if next := s.GetFrame(64); &next[0] != &frame[0] {
		t.Error("the frame the receiver released is not the sender's next GetFrame of its class")
	}

	mine := make([]byte, 64)
	var lent []byte
	b.SetReceiver(func(data []byte) { lent = data })
	a.Send(mine)
	s.Run()
	if &lent[0] == &mine[0] {
		t.Fatal("Send delivered the caller's buffer, not a pool frame")
	}
	if next := s.GetFrame(64); &next[0] != &lent[0] {
		t.Error("the port did not release the frame its lending receiver returned from")
	}
	if next := s.GetFrame(64); &next[0] == &frame[0] || &next[0] == &mine[0] {
		t.Error("the pool handed out a frame it does not own")
	}
}

// TestSendCopiesTheCallersBytes: the caller may overwrite its buffer as
// soon as Send returns, and the peer still receives the bytes it sent.
func TestSendCopiesTheCallersBytes(t *testing.T) {
	s := New(1)
	a, b := Connect(s, "a", "b", 100, 500)
	var got []byte
	b.SetReceiver(func(data []byte) { got = append(got, data...) })
	buf := []byte("the original bytes")
	a.Send(buf)
	copy(buf, "overwritten bytes!")
	s.Run()
	if string(got) != "the original bytes" {
		t.Errorf("peer received %q, want %q", got, "the original bytes")
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
// released frame's whole capacity, and that a second release of a frame
// the pool still holds panics — with a re-slice of it too — while a
// frame taken back out of the pool may be released again.
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
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a frame released twice did not panic")
			}
		}()
		s.PutFrame(buf[:10])
	}()
	again := s.GetFrame(100)
	if &again[0] != &buf[0] {
		t.Fatal("the released frame is not the next of its class")
	}
	s.PutFrame(again) // out of the pool and back: one release, no panic
	s.PutFrame(s.GetFrame(0))
	s.PutFrame(make([]byte, 0)) // empty frames have no identity to check
}

// spareSets reports the depth of the stack of spares.
func spareSets() int {
	spares.Lock()
	defer spares.Unlock()
	return len(spares.sets)
}

// TestCloseHandsFramesAndEventsToNextNew pins the hand-over between
// runs: the frame and the event struct a closed simulator released are
// the first the next New hands out, the closed simulator keeps neither,
// the set is popped (a second New is not handed the same frame), and an
// EventRef from the closed run cannot cancel the struct's new occupant.
func TestCloseHandsFramesAndEventsToNextNew(t *testing.T) {
	s := New(1)
	frame := s.GetFrame(100)
	s.PutFrame(frame)
	stale := s.After(1, func() {})
	s.Run()
	depth := spareSets()
	s.Close()
	if got := spareSets(); got != depth+1 {
		t.Fatalf("Close left %d sets of spares, want %d", got, depth+1)
	}
	for c, st := range s.frames {
		if len(st) != 0 {
			t.Errorf("the closed simulator still holds %d frames of class %d", len(st), c)
		}
	}
	if len(s.free) != 0 {
		t.Errorf("the closed simulator still holds %d event structs", len(s.free))
	}

	next := New(2)
	if got := spareSets(); got != depth {
		t.Errorf("New left %d sets of spares, want %d", got, depth)
	}
	if got := next.GetFrame(100); &got[0] != &frame[0] {
		t.Error("the next simulator's first frame of the class is not the one the closed simulator released")
	}
	fired := false
	ref := next.After(1, func() { fired = true })
	if ref.ev != stale.ev {
		t.Error("the next simulator's first event is not the struct the closed simulator recycled")
	}
	if !stale.Cancelled() || next.Cancel(stale) {
		t.Error("an EventRef from the closed run is live on the struct's new occupant")
	}
	next.Run()
	if !fired {
		t.Error("the new occupant did not fire")
	}
	if got := New(3).GetFrame(100); &got[0] == &frame[0] {
		t.Error("two open simulators were handed the same frame")
	}
}

// TestHandOverAcrossGoroutines runs New → a two-port exchange → Close
// on two goroutines at once, with released frames poisoned, so every
// run after the first few starts from frames and events another
// goroutine's run released. Each run must deliver exactly the bytes the
// first run did, and the stack of spares must end no deeper than the two
// simulators open at once can make it. Under -race it also proves the
// hand-over is synchronised.
func TestHandOverAcrossGoroutines(t *testing.T) {
	defer PoisonReleasedFrames(PoisonReleasedFrames(true))
	exchange := func() [sha256.Size]byte {
		s := New(1)
		a, b := Connect(s, "a", "b", 100, 500)
		h := sha256.New()
		b.SetFrameReceiver(func(data []byte) {
			h.Write(data)
			reply := s.GetFrame(64)
			copy(reply, data)
			s.PutFrame(data)
			b.SendFrame(reply)
		})
		a.SetReceiver(func(data []byte) { h.Write(data) })
		for i := 0; i < 64; i++ {
			f := s.GetFrame(64 + 16*i)
			for j := range f {
				f[j] = byte(i ^ j)
			}
			s.After(Duration(40*i), func() { a.SendFrame(f) })
		}
		s.Run()
		s.Close()
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		return sum
	}
	want := exchange()
	depth := spareSets()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if got := exchange(); got != want {
					t.Errorf("run %d delivered bytes with digest %x, the first run %x", i, got[:6], want[:6])
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := spareSets(); got > depth+2 {
		t.Errorf("the stack of spares grew from %d to %d sets with two simulators open at once", depth, got)
	}
}

// TestCloseKeepsAtMostFreeMaxEvents checks a closed simulator's set of
// spares holds at most freeMax event structs however many its run used.
func TestCloseKeepsAtMostFreeMaxEvents(t *testing.T) {
	s := New(1)
	for i := 0; i < freeMax+100; i++ {
		s.After(Duration(i), func() {})
	}
	s.Run()
	s.Close()
	next := New(2)
	if len(next.free) != freeMax {
		t.Errorf("New adopted %d event structs, want the bound %d", len(next.free), freeMax)
	}
}
