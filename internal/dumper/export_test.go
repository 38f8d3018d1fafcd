package dumper

// MirrorFrame is mirrorFrame for the external tests.
var MirrorFrame = mirrorFrame

// Deliver hands the node a pool-frame copy of one mirror frame as its
// port would, bypassing the link.
func (n *Node) Deliver(wire []byte) { n.receive(append(n.Sim.GetFrame(len(wire))[:0], wire...)) }

// CoreLoads reports how many of frames RSS steers to each of the node's
// cores (balance diagnostics).
func (n *Node) CoreLoads(frames [][]byte) []int {
	out := make([]int, len(n.cores))
	for _, f := range frames {
		out[n.rssCore(f)]++
	}
	return out
}
