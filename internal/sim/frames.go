package sim

import (
	"fmt"
	"sync/atomic"
)

// Frame ownership. Every frame on a link is a pool frame, held by
// whoever last received it. Components that build wire frames (NIC
// transmit, the switch's mirror copies) take them from the simulator's
// frame pool with GetFrame and hand them on with Port.SendFrame; a
// caller's own bytes become a pool frame in Port.Send, which copies them.
// The holder passes the frame on or returns it with PutFrame: a NIC once
// dispatch is done or the frame is discarded, the switch when it drops a
// frame, a dumper once it has trimmed its record, and a port whose
// receiver was installed with SetReceiver when that receiver returns.
// A frame that is never released (a test sink that keeps it) leaks
// nothing: the garbage collector takes it and the pool allocates the
// next one.
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
// the run's digests change, and a frame released while its class's
// stack still holds it panics. It returns the previous setting.
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
	c := cap(buf) / frameQuantum
	if poisonFrames.Load() {
		buf = buf[:cap(buf)]
		if c < frameClasses && len(buf) > 0 {
			for _, f := range s.frames[c] {
				if cap(f) > 0 && &f[:cap(f)][0] == &buf[0] {
					// invariant: only while the PoisonReleasedFrames test hook is on; a frame ends exactly once, so none is released while its class's stack still holds it.
					panic(fmt.Sprintf("sim: frame of %d bytes released twice", cap(buf)))
				}
			}
		}
		for i := range buf {
			buf[i] = 0xDB
		}
	}
	if c >= frameClasses || len(s.frames[c]) >= frameClassMax {
		return
	}
	s.frames[c] = append(s.frames[c], buf)
}
