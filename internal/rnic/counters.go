package rnic

// Counter names. The set merges the NVIDIA and Intel vocabularies the
// paper inspects; the counter analyzer (§4, §6.2.4) cross-checks these
// against the reconstructed packet trace.
const (
	CtrRxRoCEPackets   = "rx_roce_packets"
	CtrTxRoCEPackets   = "tx_roce_packets"
	CtrRxRoCEBytes     = "rx_roce_bytes"
	CtrTxRoCEBytes     = "tx_roce_bytes"
	CtrOutOfSequence   = "out_of_sequence"       // responder saw OOO request packets
	CtrPacketSeqErr    = "packet_seq_err"        // NAKs sent for sequence errors
	CtrImpliedNakSeq   = "implied_nak_seq_err"   // requester saw OOO read responses
	CtrLocalAckTimeout = "local_ack_timeout_err" // retransmission timeouts fired
	CtrRetransmits     = "retransmitted_packets"
	CtrDuplicateReq    = "duplicate_request"
	CtrNpCnpSent       = "np_cnp_sent" // Intel name: cnpSent
	CtrNpEcnMarked     = "np_ecn_marked_roce_packets"
	CtrRpCnpHandled    = "rp_cnp_handled"
	CtrICRCErrors      = "icrc_error_packets"
	CtrRxDiscardsPhy   = "rx_discards_phy"
	CtrRnrNakRetry     = "rnr_nak_retry_err"
	CtrRetryExceeded   = "retry_exceeded_err"
	CtrApmProcessed    = "apm_slow_path_packets"
	CtrUCRxDropped     = "uc_rx_dropped" // UC receiver silently discarded packets (gap, stale, MR, no recv)
	CtrUDRxDropped     = "ud_rx_dropped" // UD datagrams discarded for lack of a posted receive
)

// Counters is a named-counter set with stable iteration order, matching
// the "hardware network stack counters" artifact the orchestrator
// collects (Table 1).
type Counters struct {
	m map[string]uint64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{m: map[string]uint64{}} }

// Inc adds one to the named counter.
func (c *Counters) Inc(name string) { c.m[name]++ }

// Add adds n to the named counter.
func (c *Counters) Add(name string, n uint64) { c.m[name] += n }

// Get reads a counter (zero when never touched).
func (c *Counters) Get(name string) uint64 { return c.m[name] }

// Snapshot copies the counter values, e.g. for before/after diffing.
func (c *Counters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}
