package packet

// Test-only readers of serialized frames.

// UDPDstPort reads the UDP destination port from a serialized packet.
func UDPDstPort(wire []byte) uint16 {
	if len(wire) < EthernetSize+IPv4Size+UDPSize {
		return 0
	}
	return be.Uint16(wire[34+2 : 34+4])
}

// VerifyIPv4Checksum recomputes the header checksum over the 20-byte IPv4
// header in a serialized packet.
func VerifyIPv4Checksum(data []byte) bool {
	if len(data) < EthernetSize+IPv4Size {
		return false
	}
	return ipv4Checksum(data[14:34]) == 0
}
