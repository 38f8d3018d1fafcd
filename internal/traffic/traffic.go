// Package traffic implements Lumina's traffic generators (§3.2): a
// requester and a responder application driving the NIC-under-test over
// RC, UC, or UD QPs (per-connection, via the scenario's transport
// fields). The requester posts Send/Write/Read work
// requests with a bounded number of outstanding messages (tx-depth) and
// optional barrier synchronization across QPs; the responder pre-posts
// receives and owns the target memory regions. After setup, the pair
// exposes the exchanged connection metadata (QPNs, initial PSNs, GIDs)
// that the orchestrator forwards to the event injector — the
// control-plane flow of Figure 2.
package traffic

import (
	"fmt"
	"strconv"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/injector"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// ConnStats aggregates one connection's application-level metrics — the
// "traffic generator log" artifact of Table 1.
type ConnStats struct {
	Index   int    `json:"index"`
	ReqQPN  uint32 `json:"req_qpn"`
	RespQPN uint32 `json:"resp_qpn"`
	// MCTs are per-message completion times in posting order.
	MCTs []sim.Duration `json:"mcts_ns"`
	// Statuses counts completion statuses by name.
	Statuses map[string]int `json:"statuses"`
	Bytes    int64          `json:"bytes"`
	Errored  bool           `json:"errored"`

	FirstPost    sim.Time `json:"first_post_ns"`
	LastComplete sim.Time `json:"last_complete_ns"`
}

// GoodputGbps is the connection's application goodput over its active
// window.
func (c *ConnStats) GoodputGbps() float64 {
	d := c.LastComplete.Sub(c.FirstPost)
	if d <= 0 {
		return 0
	}
	return float64(c.Bytes) * 8 / float64(d)
}

// MaxMCT returns the worst message completion time.
func (c *ConnStats) MaxMCT() sim.Duration {
	var max sim.Duration
	for _, m := range c.MCTs {
		if m > max {
			max = m
		}
	}
	return max
}

// AvgMCT returns the mean message completion time.
func (c *ConnStats) AvgMCT() sim.Duration {
	if len(c.MCTs) == 0 {
		return 0
	}
	var total sim.Duration
	for _, m := range c.MCTs {
		total += m
	}
	return total / sim.Duration(len(c.MCTs))
}

// Results is the full traffic-generator report.
type Results struct {
	Conns []ConnStats `json:"connections"`
	Start sim.Time    `json:"start_ns"`
	End   sim.Time    `json:"end_ns"`
}

// TotalGoodputGbps is aggregate goodput over the whole run.
func (r *Results) TotalGoodputGbps() float64 {
	var bytes int64
	for i := range r.Conns {
		bytes += r.Conns[i].Bytes
	}
	d := r.End.Sub(r.Start)
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / float64(d)
}

// AvgMCT averages message completion time across all connections.
func (r *Results) AvgMCT() sim.Duration {
	var total sim.Duration
	n := 0
	for i := range r.Conns {
		for _, m := range r.Conns[i].MCTs {
			total += m
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / sim.Duration(n)
}

// conn is one QP pair plus its progress state.
type conn struct {
	reqQP, respQP *rnic.QP
	mr            rnic.MR
	stats         ConnStats
	posted        int
	completed     int
	done          bool
	track         string // telemetry track, "traffic/conn-<idx>"; named only with a hub
	// onComplete is every posted WR's OnComplete, built once per
	// connection.
	onComplete func(rnic.Completion)
}

// Pair is a requester/responder generator pair bound to two NICs.
type Pair struct {
	Sim *sim.Simulator
	Cfg config.Traffic

	verbs []rnic.Verb
	// conns is one slab; entries never move, since each completion
	// callback holds its connection's address.
	conns []conn
	// mcts backs every connection's MCTs: connection i's window is
	// mcts[i*NumMsgsPerQP:][:0:NumMsgsPerQP], cut at its first OK
	// completion, so a connection with none keeps a nil slice (null in
	// report.json). Made at the pair's first OK completion.
	mcts []sim.Duration

	started  bool
	finished bool
	onDone   func(*Results)
	results  *Results

	// barrier state
	roundDone int
}

// parseVerbCombo resolves a verb spec — a single verb or a "+"-joined
// combination like "send+read" (§3.2: "the requester has the flexibility
// to post verb combinations, such as Send and Read, facilitating the
// generation of bi-directional data traffic"). Messages alternate
// round-robin over the combination.
func parseVerbCombo(spec string) ([]rnic.Verb, error) {
	var out []rnic.Verb
	start := 0
	for i := 0; i <= len(spec); i++ {
		if i == len(spec) || spec[i] == '+' {
			v, err := rnic.ParseVerb(spec[start:i])
			if err != nil {
				return nil, err
			}
			out = append(out, v)
			start = i + 1
		}
	}
	return out, nil
}

// reservedWQEs bounds the work requests a pair reserves before it
// starts, so that building a scenario whose deadline will cut it short
// does not allocate for messages it never posts; past the bound,
// PostSend allocates as it goes.
const reservedWQEs = 1 << 16

// NewPair creates the generator pair and performs QP setup and metadata
// exchange (but does not start traffic). label distinguishes this
// pair's probe tracks from other pairs sharing one hub — fabric runs
// create one pair per sender. An empty label keeps the classic
// "traffic/conn-<i>" names; otherwise tracks are
// "traffic/<label>/conn-<i>".
func NewPair(s *sim.Simulator, req, resp *rnic.NIC, cfg config.Traffic, label string) (*Pair, error) {
	verbs, err := parseVerbCombo(cfg.Verb)
	if err != nil {
		return nil, err
	}
	p := &Pair{Sim: s, Cfg: cfg, verbs: verbs, conns: make([]conn, cfg.NumConnections)}
	// Each connection is a QP on each NIC, the responder's memory region
	// and the requester's NumMsgsPerQP work requests, up to a pair-wide
	// reservedWQEs.
	req.Reserve(cfg.NumConnections, 0, min(cfg.NumMsgsPerQP, max(1, reservedWQEs/cfg.NumConnections)))
	resp.Reserve(cfg.NumConnections, cfg.NumConnections, 0)
	reqIPs := req.IPs()
	for i := range p.conns {
		tp, err := rnic.ParseTransport(cfg.TransportOf(i))
		if err != nil {
			return nil, err
		}
		qcfg := rnic.QPConfig{
			MTU:        cfg.MTU,
			TimeoutExp: cfg.MinRetransmitTimeout,
			RetryCnt:   cfg.MaxRetransmitRetry,
			Transport:  tp,
		}
		if i < len(cfg.QPTrafficClass) {
			qcfg.TrafficClass = cfg.QPTrafficClass[i]
		}
		if cfg.MultiGID {
			qcfg.SrcIP = reqIPs[i%len(reqIPs)]
		}
		rq := req.CreateQP(qcfg)
		respCfg := qcfg
		respCfg.TrafficClass = 0
		respCfg.SrcIP = resp.IP()
		sq := resp.CreateQP(respCfg)
		// Metadata exchange over the out-of-band TCP connection (§3.2):
		// QPN, PSN, GID, memory address and key.
		rq.Connect(sq.Local())
		sq.Connect(rq.Local())
		mr := resp.RegisterMR(cfg.MessageSize * cfg.NumMsgsPerQP)
		c := &p.conns[i]
		*c = conn{reqQP: rq, respQP: sq, mr: mr}
		c.onComplete = func(comp rnic.Completion) { p.onCompletion(c, comp) }
		if s.Hub().Active() {
			if label == "" {
				c.track = "traffic/conn-" + strconv.Itoa(i)
			} else {
				c.track = "traffic/" + label + "/conn-" + strconv.Itoa(i)
			}
		}
		c.stats = ConnStats{
			Index: i, ReqQPN: rq.QPN, RespQPN: sq.QPN,
			Statuses: map[string]int{},
		}
	}
	return p, nil
}

// UnreliableQPNs returns the destination QPNs (both directions) of
// every connection running on an unreliable transport (UC/UD), or nil
// when the pair is all-RC. The analyzers use the set to attribute drops
// on these QPs as expected silent losses rather than recovery failures.
func (p *Pair) UnreliableQPNs() map[uint32]bool {
	var set map[uint32]bool
	for i := range p.conns {
		c := &p.conns[i]
		if c.reqQP.Transport().Reliable() {
			continue
		}
		if set == nil {
			set = map[uint32]bool{}
		}
		set[c.reqQP.QPN] = true
		set[c.respQP.QPN] = true
	}
	return set
}

// ConnMetas returns the runtime metadata the requester shares with the
// event injector before traffic starts (§3.3).
func (p *Pair) ConnMetas() []injector.ConnMeta {
	out := make([]injector.ConnMeta, 0, len(p.conns))
	for i := range p.conns {
		c := &p.conns[i]
		rl, sl := c.reqQP.Local(), c.respQP.Local()
		out = append(out, injector.ConnMeta{
			ReqIP: rl.IP, ReqQPN: rl.QPN, ReqIPSN: rl.IPSN,
			RespIP: sl.IP, RespQPN: sl.QPN, RespIPSN: sl.IPSN,
		})
	}
	return out
}

// Start begins traffic generation. onDone fires once every connection
// has finished (all messages completed, or its QP failed).
func (p *Pair) Start(onDone func(*Results)) error {
	if p.started {
		return fmt.Errorf("traffic: already started")
	}
	p.started = true
	p.onDone = onDone
	p.results = &Results{Start: p.Sim.Now()}

	// Responder pre-posts receives for every expected Send message.
	for i := range p.conns {
		for m := 0; m < p.Cfg.NumMsgsPerQP; m++ {
			if p.verbFor(m) == rnic.VerbSend {
				p.conns[i].respQP.PostRecv(rnic.RecvRequest{WRID: m})
			}
		}
	}

	if p.Cfg.BarrierSync {
		p.postRound()
	} else {
		for i := range p.conns {
			p.fill(&p.conns[i])
		}
	}
	return nil
}

// verbFor picks the verb for message index i (round-robin over the
// configured combination).
func (p *Pair) verbFor(i int) rnic.Verb {
	return p.verbs[i%len(p.verbs)]
}

// fill keeps tx-depth messages outstanding on one connection.
func (p *Pair) fill(c *conn) {
	for !c.done && c.posted < p.Cfg.NumMsgsPerQP && c.posted-c.completed < p.Cfg.TxDepth {
		p.postOne(c)
	}
}

// postRound posts the next message on every connection (barrier mode):
// the requester only posts round k+1 after receiving the completions of
// round k across all QPs (§3.2).
func (p *Pair) postRound() {
	p.roundDone = 0
	for i := range p.conns {
		c := &p.conns[i]
		if !c.done && c.posted < p.Cfg.NumMsgsPerQP {
			p.postOne(c)
		} else {
			p.roundDone++ // finished conns auto-complete their round
		}
	}
}

func (p *Pair) postOne(c *conn) {
	idx := c.posted
	c.posted++
	if idx == 0 {
		c.stats.FirstPost = p.Sim.Now()
	}
	wr := rnic.WorkRequest{
		WRID: idx, Verb: p.verbFor(idx), Length: p.Cfg.MessageSize,
		RemoteAddr: c.mr.Addr, RKey: c.mr.RKey,
		OnComplete: c.onComplete,
	}
	if h := p.Sim.Hub(); h.Active() {
		h.EmitArgs(telemetry.KindTrafficMsg, c.track, "post",
			telemetry.I("wr_id", int64(idx)),
			telemetry.S("verb", wr.Verb.String()))
	}
	if err := c.reqQP.PostSend(wr); err != nil {
		// QP already failed: account the message as flushed.
		p.onCompletion(c, rnic.Completion{
			WRID: idx, Status: rnic.StatusFlushed,
			PostedAt: p.Sim.Now(), CompletedAt: p.Sim.Now(),
		})
	}
}

func (p *Pair) onCompletion(c *conn, comp rnic.Completion) {
	c.completed++
	st := &c.stats
	st.Statuses[comp.Status.String()]++
	if comp.Status == rnic.StatusOK {
		if st.MCTs == nil {
			m := p.Cfg.NumMsgsPerQP
			if p.mcts == nil {
				p.mcts = make([]sim.Duration, len(p.conns)*m)
			}
			st.MCTs = p.mcts[st.Index*m : st.Index*m : (st.Index+1)*m]
		}
		st.MCTs = append(st.MCTs, comp.CompletedAt.Sub(comp.PostedAt))
		st.Bytes += int64(comp.Bytes)
	} else {
		st.Errored = true
	}
	st.LastComplete = comp.CompletedAt
	if h := p.Sim.Hub(); h.Active() {
		h.EmitArgs(telemetry.KindTrafficMsg, c.track, "complete",
			telemetry.I("wr_id", int64(comp.WRID)),
			telemetry.S("status", comp.Status.String()))
	}

	if c.completed >= p.Cfg.NumMsgsPerQP || c.reqQP.Errored() {
		if !c.done {
			c.done = true
			// Flush never-completed messages on an errored QP.
			if c.reqQP.Errored() && c.posted < p.Cfg.NumMsgsPerQP {
				c.completed = p.Cfg.NumMsgsPerQP
				c.posted = p.Cfg.NumMsgsPerQP
			}
		}
	}

	if p.Cfg.BarrierSync {
		p.roundDone++
		if p.roundDone >= len(p.conns) {
			if p.allDone() {
				p.finish()
			} else {
				p.postRound()
			}
		}
	} else {
		p.fill(c)
		if p.allDone() {
			p.finish()
		}
	}
}

func (p *Pair) allDone() bool {
	for i := range p.conns {
		if !p.conns[i].done {
			return false
		}
	}
	return true
}

func (p *Pair) finish() {
	if p.finished {
		return
	}
	p.finished = true
	p.results.End = p.Sim.Now()
	p.results.Conns = make([]ConnStats, 0, len(p.conns))
	for i := range p.conns {
		p.results.Conns = append(p.results.Conns, p.conns[i].stats)
	}
	// The requester sends the completion notification to the responder
	// over the TCP connection (§3.2); in the simulation the orchestrator
	// observes this callback directly.
	if p.onDone != nil {
		p.onDone(p.results)
	}
}

// Finished reports whether all traffic completed.
func (p *Pair) Finished() bool { return p.finished }

// Snapshot returns the report in its current state, even mid-run — the
// partial per-connection stats a timed-out run still has. Returns nil
// only when traffic was never started. The End time of an unfinished
// snapshot is the current virtual time.
func (p *Pair) Snapshot() *Results {
	if p.results == nil {
		return nil
	}
	if p.finished {
		return p.results
	}
	out := &Results{Start: p.results.Start, End: p.Sim.Now(), Conns: make([]ConnStats, 0, len(p.conns))}
	for i := range p.conns {
		out.Conns = append(out.Conns, p.conns[i].stats)
	}
	return out
}
