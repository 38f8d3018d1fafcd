package sim

import "testing"

// TestReceiverReleasedFrameIsSendersNextGet pins how a frame's ownership
// crosses a link and where a released frame goes. An owned pool frame is
// never copied: the peer's receiver gets the very buffer with
// owned == true, and once that receiver releases it the frame is the
// next one of its class the sender is handed — one pool serves both ends
// of every link. A frame sent with plain Send stays the caller's:
// owned == false, same bytes, and nothing adopts it.
func TestReceiverReleasedFrameIsSendersNextGet(t *testing.T) {
	s := New(1)
	a, b := Connect(s, "a", "b", 100, 500)

	frame := s.GetFrame(64)
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
				t.Error("owned frame arrived as unowned")
			}
			if data[0] != 0 || data[63] != 63 {
				t.Errorf("owned frame corrupted in flight: [0]=%d [63]=%d", data[0], data[63])
			}
			s.PutFrame(data)
		case &mine[0]:
			gotMine = true
			if owned {
				t.Error("caller-owned buffer arrived as an owned frame")
			}
		default:
			t.Error("delivery copied the frame")
		}
	})
	a.SendFrame(frame, true)
	a.Send(mine)
	s.Run()
	if !gotOwned || !gotMine {
		t.Fatalf("delivered owned=%v caller-owned=%v, want both", gotOwned, gotMine)
	}
	if got := s.GetFrame(64); &got[0] != &frame[0] {
		t.Error("the frame the receiver released is not the sender's next GetFrame of its class")
	}
	if got := s.GetFrame(64); &got[0] == &frame[0] || &got[0] == &mine[0] {
		t.Error("the pool handed out a frame it does not own")
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
