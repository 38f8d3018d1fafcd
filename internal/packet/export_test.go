package packet

// Test-only readers of serialized frames.

// UDPDstPort reads the UDP destination port from a serialized packet.
func UDPDstPort(wire []byte) uint16 {
	if len(wire) < offBTH {
		return 0
	}
	return be.Uint16(wire[offUDPDstPort:])
}

// VerifyIPv4Checksum recomputes the header checksum over the 20-byte IPv4
// header in a serialized packet.
func VerifyIPv4Checksum(data []byte) bool {
	if len(data) < offUDP {
		return false
	}
	return ipv4Checksum(data[offIP:offUDP]) == 0
}

// DecodeHeaders is ParseHeaders' Packet form: it applies the same
// checks and fills pkt's headers from the accepted bytes, leaving
// Payload and ICRC zero, or leaves pkt zero and returns the error.
func DecodeHeaders(data []byte, pkt *Packet) error {
	*pkt = Packet{}
	if _, err := ParseHeaders(data); err != nil {
		return err
	}
	pkt.decodeHeaders(data)
	return nil
}
