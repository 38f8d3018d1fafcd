package sim

import "sync/atomic"

// Frame ownership. Components that build wire frames (NIC transmit, the
// switch's mirror and rewrite copies) take them from the simulator's
// frame pool with GetFrame and hand them on with Port.SendFrame(data,
// true): ownership travels with the frame, hop by hop, to whoever
// consumes it last, and that consumer — a NIC once dispatch is done or
// the frame is discarded, the switch when it drops a frame or replaces
// it with a copy, a dumper once it has trimmed its record — returns it
// with PutFrame. Frames sent with Port.Send stay the caller's: receivers
// see owned == false and never release or adopt them. A receiver that
// does not release an owned frame (a test sink) leaks nothing: the
// garbage collector takes the frame and the pool allocates the next one.
//
// The pool is per Simulator and every component of a testbed runs on
// the one simulator, so a frame released by whoever consumed it — at
// any hop — is the next frame of its class handed to any sender. When
// the run is over, Close hands the pool to the next simulator New makes
// (see spares), so a process that runs many testbeds allocates a class's
// in-flight window once, not once per run.

const (
	// frameQuantum is the size-class step. Frames are handed out with
	// their capacity rounded up to it, so every frame of a class fits
	// every request of that class and a cold pool allocates what the
	// runtime's own size classes would have rounded to anyway.
	frameQuantum = 64
	// frameClasses covers every RoCE frame up to the largest IB MTU
	// (4096 bytes of payload plus headers); larger frames are allocated
	// exactly and never pooled.
	frameClasses = 72
	// frameClassMax bounds the frames retained per class: the next power
	// of two above the most frames of one class in flight at once on any
	// checked-in scenario (761 of the 1 088-byte class, the 16-host
	// incast; a pair testbed keeps under 100). A set of spares therefore
	// retains at most 1.1 MiB per class at a 1 KiB MTU and 4.1 MiB at
	// 4 KiB, and the incast leaves 1.1 MiB in all.
	frameClassMax = 1024
)

// framePool is one LIFO stack of released frames per size class.
type framePool [frameClasses][][]byte

// poisonFrames makes PutFrame overwrite released frames; see
// PoisonReleasedFrames.
var poisonFrames atomic.Bool

// PoisonReleasedFrames is a test hook: while on, every frame returned to
// any simulator's pool is filled with 0xDB first, so a component that
// still reads a frame it (or a peer) already released sees garbage and
// the run's digests change. It returns the previous setting.
func PoisonReleasedFrames(on bool) bool { return poisonFrames.Swap(on) }

// GetFrame returns an n-byte frame owned by the caller, recycled from
// the pool when a frame of n's size class is available.
func (s *Simulator) GetFrame(n int) []byte {
	c := (n + frameQuantum - 1) / frameQuantum
	if c >= frameClasses {
		return make([]byte, n)
	}
	if st := s.frames[c]; len(st) > 0 {
		buf := st[len(st)-1]
		st[len(st)-1] = nil
		s.frames[c] = st[:len(st)-1]
		return buf[:n]
	}
	return make([]byte, n, c*frameQuantum)
}

// PutFrame returns an owned frame to the pool. The caller must not touch
// buf afterwards.
func (s *Simulator) PutFrame(buf []byte) {
	if poisonFrames.Load() {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = 0xDB
		}
	}
	c := cap(buf) / frameQuantum
	if c >= frameClasses || len(s.frames[c]) >= frameClassMax {
		return
	}
	s.frames[c] = append(s.frames[c], buf)
}
