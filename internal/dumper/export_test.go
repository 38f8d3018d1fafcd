package dumper

// CoreLoads reports packets captured per core (RSS balance diagnostics).
func (n *Node) CoreLoads() []int {
	out := make([]int, len(n.cores))
	for i := range n.cores {
		for _, chunk := range n.cores[i].chunks {
			out[i] += len(chunk)
		}
	}
	return out
}
