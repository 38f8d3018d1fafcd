// Package rnic implements behavioural models of the RDMA NICs Lumina
// tests: the full RoCEv2 Reliable Connection transport (Send/Recv, Write,
// Read), Go-back-N loss recovery, retransmission timeouts, DCQCN
// congestion control (notification and reaction points), the ETS packet
// scheduler, and the hardware counters operators read in production.
//
// Device-specific micro-behaviours — the subject of the paper — are not
// hard-coded branches but data in a Profile: NACK generation/reaction
// latency curves, CNP rate-limiter scope and interval, ETS
// work-conservation, slow-path concurrency (the CX4 Lx "noisy neighbor"),
// MigReq/APM handling (the CX5↔E810 interop bug), counter bugs, and the
// undocumented adaptive-retransmission timeout schedule. A fifth profile,
// SpecNIC, follows the InfiniBand specification exactly and anchors the
// analyzers' notion of correct behaviour.
package rnic

import (
	"fmt"
	"sort"
	"strings"

	"github.com/lumina-sim/lumina/internal/sim"
)

// Model names accepted in test configurations ("nic: {type: cx4}").
const (
	ModelCX4  = "cx4"  // NVIDIA ConnectX-4 Lx 40 GbE
	ModelCX5  = "cx5"  // NVIDIA ConnectX-5 100 GbE
	ModelCX6  = "cx6"  // NVIDIA ConnectX-6 Dx 100 GbE
	ModelE810 = "e810" // Intel E810 100 GbE
	ModelSpec = "spec" // idealized IB-spec-conforming NIC (analysis baseline)
)

// LatencyCurve is a deterministic latency-versus-position model for the
// retransmission handling paths measured in Figures 8 and 9: the latency
// experienced when the dropped packet sits at relative PSN index i is
// Base + PerPSN·i plus a bounded pseudo-random jitter derived from the
// simulation RNG.
type LatencyCurve struct {
	Base   sim.Duration
	PerPSN sim.Duration
	Jitter sim.Duration // maximum additional jitter (uniform in [0, Jitter))
}

// At evaluates the curve at relative PSN index i using rng for jitter.
func (c LatencyCurve) At(i int, rng *sim.RNG) sim.Duration {
	d := c.Base + sim.Duration(int64(c.PerPSN)*int64(i))
	if c.Jitter > 0 {
		d += sim.Duration(rng.Int63n(int64(c.Jitter)))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// CNPScope selects the granularity at which a NIC's notification point
// rate-limits CNP generation — one of the hidden behaviours §6.3
// uncovers: CX4 Lx limits per destination IP, E810 per QP, CX5 and
// CX6 Dx per NIC port.
type CNPScope int

const (
	CNPPerPort CNPScope = iota
	CNPPerDstIP
	CNPPerQP
)

func (s CNPScope) String() string {
	switch s {
	case CNPPerPort:
		return "per-port"
	case CNPPerDstIP:
		return "per-dst-ip"
	case CNPPerQP:
		return "per-qp"
	}
	return fmt.Sprintf("CNPScope(%d)", int(s))
}

// Profile captures one NIC model's externally observable micro-behaviour.
type Profile struct {
	Name     string
	LinkGbps float64

	// PipelineDelay is the base RX→processing latency applied to every
	// arriving packet — the fast path through the on-NIC pipeline.
	PipelineDelay sim.Duration
	// AckCoalesce is the responder's ACK coalescing factor: one ACK per
	// this many in-order request packets besides explicit AckReq
	// packets. Zero selects the default (4).
	AckCoalesce int
	// AckGenDelay is responder latency from in-order arrival to ACK
	// transmission (fast path).
	AckGenDelay sim.Duration

	// Retransmission latency curves (Figures 8 and 9). The Write curves
	// also cover Send, which the paper found indistinguishable.
	NACKGenWrite   LatencyCurve // responder: OOO Write/Send arrival → NACK sent
	NACKReactWrite LatencyCurve // requester: NACK received → retransmit begins
	NACKGenRead    LatencyCurve // requester: OOO Read response → re-read issued
	NACKReactRead  LatencyCurve // responder: re-read received → response begins

	// DCQCN notification point.
	CNPScope            CNPScope
	MinCNPInterval      sim.Duration // enforced minimum spacing between CNPs
	CNPIntervalSettable bool         // whether configs may override the interval
	// HiddenCNPInterval, when nonzero, is enforced regardless of
	// configuration — E810's undocumented ~50 µs floor (§6.3).
	HiddenCNPInterval sim.Duration

	// DCQCN reaction point parameters (DCQCN's published defaults;
	// identical across profiles unless noted).
	DCQCN DCQCNParams

	// ETS packet scheduler. ETSNonWorkConserving models the CX6 Dx bug
	// (§6.2.1): weighted queues are clamped to their guaranteed share
	// even when other queues leave bandwidth idle.
	ETSNonWorkConserving bool

	// Slow-path engine (§6.2.2). Read-loss handling occupies a slow-path
	// context for the duration of the NACK-generation latency; exceeding
	// SlowPathContexts wedges the whole RX pipeline for WedgeDuration —
	// arriving packets are discarded (rx_discards_phy) until a watchdog
	// clears the engine — after which re-triggering is suppressed for
	// WedgeCooldown while the backlog drains. Zero contexts means
	// unlimited (no wedge).
	SlowPathContexts int
	WedgeDuration    sim.Duration
	WedgeCooldown    sim.Duration

	// APM / MigReq behaviour (§6.2.3). MigReqInit is the value the NIC
	// writes in outgoing packets' BTH.MigReq. StrictAPM receivers admit
	// the first apmCacheCapacity connections whose MigReq is 0 to a fast
	// cache; every data packet of a connection past it takes a serialized
	// slow APM validation path of apmSlowBuffer slots and APMServiceTime
	// per packet, and overflow discards the packet.
	MigReqInit     bool
	StrictAPM      bool
	APMServiceTime sim.Duration

	// Counter bugs (§6.2.4).
	BugCNPSentStuck       bool // E810: cnpSent never increments
	BugImpliedNakSeqStuck bool // CX4 Lx: implied_nak_seq_err never increments

	// Adaptive retransmission (§6.3, NVIDIA NICs). When enabled by
	// configuration and supported here, retransmission timeouts follow
	// AdaptiveTimeouts (wrapping by repeating the final value doubled)
	// instead of the IB-spec 4.096 µs · 2^timeout, and the NIC retries
	// AdaptiveRetryMin..AdaptiveRetryMax times regardless of retry_cnt.
	SupportsAdaptiveRetrans bool
	AdaptiveTimeouts        []sim.Duration
	AdaptiveRetryMin        int
	AdaptiveRetryMax        int
}

// DCQCNParams are the reaction-point constants from the DCQCN paper, in
// simulation-friendly units.
type DCQCNParams struct {
	G                  float64      // alpha gain (1/256)
	AlphaTimer         sim.Duration // alpha decay period when no CNPs arrive
	RateTimer          sim.Duration // additive/fast increase period
	ByteCounter        int64        // bytes per increase event
	AIRateGbps         float64      // additive increase step
	HAIRateGbps        float64      // hyper increase step
	MinRateGbps        float64      // rate floor
	FastRecoveryRounds int          // timer/byte rounds in fast recovery before AI
}

func defaultDCQCN() DCQCNParams {
	return DCQCNParams{
		G:                  1.0 / 256,
		AlphaTimer:         55 * sim.Microsecond,
		RateTimer:          300 * sim.Microsecond,
		ByteCounter:        10 << 10, // 10 KB (Mellanox-scale byte stage)
		AIRateGbps:         5,
		HAIRateGbps:        50,
		MinRateGbps:        0.1,
		FastRecoveryRounds: 5,
	}
}

// Profiles returns the built-in model table, freshly allocated so callers
// may tweak fields (ablation benchmarks do).
func Profiles() map[string]Profile {
	m := make(map[string]Profile, len(ModelNames()))
	for _, name := range ModelNames() {
		m[name], _ = builtin(name)
	}
	return m
}

// builtin builds the named built-in profile, and only that one: every
// call returns fresh values (AdaptiveTimeouts included) that no other
// caller shares.
func builtin(name string) (Profile, bool) {
	us := func(f float64) sim.Duration { return sim.Duration(f * float64(sim.Microsecond)) }
	ms := func(f float64) sim.Duration { return sim.Duration(f * float64(sim.Millisecond)) }

	switch name {
	case ModelCX4:
		// NVIDIA ConnectX-4 Lx, 40 GbE. Fast NACK generation for
		// Write/Send but a very slow reaction path (§6.1: "retransmission
		// latencies in the hundreds of µs, primarily due to slow NACK
		// reactions"; §2: ≈200 µs ≈ 100 base RTTs). Read losses detour
		// through a ~150 µs requester slow path whose concurrency limit
		// produces the noisy-neighbor stall (§6.2.2). CNP rate limiting
		// is per destination IP (§6.3); implied_nak_seq_err is stuck
		// (§6.2.4).
		return Profile{
			Name: ModelCX4, LinkGbps: 40,
			PipelineDelay: 600, AckGenDelay: us(1),
			NACKGenWrite:   LatencyCurve{Base: us(1.4), PerPSN: 2, Jitter: us(0.3)},
			NACKReactWrite: LatencyCurve{Base: us(178), PerPSN: 30, Jitter: us(6)},
			NACKGenRead:    LatencyCurve{Base: us(148), PerPSN: 20, Jitter: us(5)},
			NACKReactRead:  LatencyCurve{Base: us(46), PerPSN: 10, Jitter: us(3)},
			CNPScope:       CNPPerDstIP, MinCNPInterval: us(4), CNPIntervalSettable: true,
			DCQCN:                   defaultDCQCN(),
			SlowPathContexts:        10,
			WedgeDuration:           330 * sim.Millisecond,
			WedgeCooldown:           sim.Second,
			MigReqInit:              true,
			BugImpliedNakSeqStuck:   true,
			SupportsAdaptiveRetrans: true,
			AdaptiveTimeouts: []sim.Duration{
				ms(4.8), ms(3.9), ms(7.6), ms(15.2), ms(23.8), ms(61.0), ms(122.0),
			},
			AdaptiveRetryMin: 8, AdaptiveRetryMax: 13,
		}, true
	case ModelCX5:
		// NVIDIA ConnectX-5, 100 GbE. The best retransmission performance
		// together with CX6 Dx: ~2 µs NACK generation, 2–6 µs reaction
		// (§6.1). Per-NIC-port CNP rate limiting (§6.3). Strict APM
		// receiver: MigReq=0 senders (E810) push new connections through
		// a shallow validation queue that overflows under concurrent
		// connection setup (§6.2.3).
		return Profile{
			Name: ModelCX5, LinkGbps: 100,
			PipelineDelay: 350, AckGenDelay: us(0.7),
			NACKGenWrite:   LatencyCurve{Base: us(1.9), PerPSN: 3, Jitter: us(0.2)},
			NACKReactWrite: LatencyCurve{Base: us(2.1), PerPSN: 38, Jitter: us(0.4)},
			NACKGenRead:    LatencyCurve{Base: us(2.0), PerPSN: 3, Jitter: us(0.2)},
			NACKReactRead:  LatencyCurve{Base: us(1.9), PerPSN: 19, Jitter: us(0.3)},
			CNPScope:       CNPPerPort, MinCNPInterval: us(4), CNPIntervalSettable: true,
			DCQCN:      defaultDCQCN(),
			MigReqInit: true,
			StrictAPM:  true, APMServiceTime: us(18),
			SupportsAdaptiveRetrans: true,
			AdaptiveTimeouts: []sim.Duration{
				ms(5.2), ms(4.0), ms(8.1), ms(16.0), ms(24.4), ms(65.0), ms(130.0),
			},
			AdaptiveRetryMin: 8, AdaptiveRetryMax: 13,
		}, true
	case ModelCX6:
		// NVIDIA ConnectX-6 Dx, 100 GbE. Retransmission behaviour close
		// to CX5 (§6.1). The headline bug: ETS queues are clamped to
		// their guaranteed bandwidth — not work conserving (§6.2.1).
		// Adaptive-retransmission schedule quoted directly from §6.3
		// (0.0056 s, 0.0041 s, 0.0084 s, 0.0167 s, 0.0251 s, 0.0671 s,
		// 0.1342 s).
		return Profile{
			Name: ModelCX6, LinkGbps: 100,
			PipelineDelay: 350, AckGenDelay: us(0.7),
			NACKGenWrite:   LatencyCurve{Base: us(2.2), PerPSN: 3, Jitter: us(0.2)},
			NACKReactWrite: LatencyCurve{Base: us(2.3), PerPSN: 40, Jitter: us(0.4)},
			NACKGenRead:    LatencyCurve{Base: us(2.3), PerPSN: 3, Jitter: us(0.2)},
			NACKReactRead:  LatencyCurve{Base: us(2.0), PerPSN: 20, Jitter: us(0.3)},
			CNPScope:       CNPPerPort, MinCNPInterval: us(4), CNPIntervalSettable: true,
			DCQCN:                   defaultDCQCN(),
			ETSNonWorkConserving:    true,
			MigReqInit:              true,
			SupportsAdaptiveRetrans: true,
			AdaptiveTimeouts: []sim.Duration{
				ms(5.6), ms(4.1), ms(8.4), ms(16.7), ms(25.1), ms(67.1), ms(134.2),
			},
			AdaptiveRetryMin: 8, AdaptiveRetryMax: 13,
		}, true
	case ModelE810:
		// Intel E810, 100 GbE. Write NACK generation ~10 µs; Read-loss
		// detection detours through an ~83 ms path (§6.1). CNPs are rate
		// limited per QP with an undocumented ~50 µs floor that no
		// configuration knob removes (§6.3); the cnpSent counter is stuck
		// (§6.2.4). Sends MigReq=0, the trigger for the CX5 interop bug
		// (§6.2.3). No adaptive retransmission.
		return Profile{
			Name: ModelE810, LinkGbps: 100,
			PipelineDelay: 500, AckGenDelay: us(1),
			NACKGenWrite:   LatencyCurve{Base: us(9.6), PerPSN: 8, Jitter: us(0.8)},
			NACKReactWrite: LatencyCurve{Base: us(58), PerPSN: 25, Jitter: us(4)},
			NACKGenRead:    LatencyCurve{Base: ms(83), PerPSN: 40, Jitter: ms(1.5)},
			NACKReactRead:  LatencyCurve{Base: us(27), PerPSN: 12, Jitter: us(2)},
			CNPScope:       CNPPerQP, MinCNPInterval: 0, CNPIntervalSettable: false,
			HiddenCNPInterval: us(50),
			DCQCN:             defaultDCQCN(),
			MigReqInit:        false,
			BugCNPSentStuck:   true,
		}, true
	case ModelSpec:
		// SpecNIC: an idealized NIC that follows the InfiniBand
		// specification and DCQCN paper exactly. Used as the analyzers'
		// correctness baseline and in ablation benchmarks.
		return Profile{
			Name: ModelSpec, LinkGbps: 100,
			PipelineDelay: 300, AckGenDelay: us(0.5),
			NACKGenWrite:   LatencyCurve{Base: us(1), PerPSN: 0},
			NACKReactWrite: LatencyCurve{Base: us(1), PerPSN: 0},
			NACKGenRead:    LatencyCurve{Base: us(1), PerPSN: 0},
			NACKReactRead:  LatencyCurve{Base: us(1), PerPSN: 0},
			CNPScope:       CNPPerQP, MinCNPInterval: 0, CNPIntervalSettable: true,
			DCQCN:      defaultDCQCN(),
			MigReqInit: true,
		}, true
	}
	return Profile{}, false
}

// ProfileByName looks up a built-in profile. The error for an unknown
// name lists every known model so a typo in a config or -nic flag is
// self-diagnosing.
func ProfileByName(name string) (Profile, error) {
	p, ok := builtin(name)
	if !ok {
		known := ModelNames()
		sort.Strings(known)
		return Profile{}, fmt.Errorf("rnic: unknown NIC model %q (known models: %s)",
			name, strings.Join(known, ", "))
	}
	return p, nil
}

// ModelNames lists the built-in models in a stable order.
func ModelNames() []string {
	return []string{ModelCX4, ModelCX5, ModelCX6, ModelE810, ModelSpec}
}

// HardwareModelNames lists the four commodity RNICs the paper tests.
func HardwareModelNames() []string {
	return []string{ModelCX4, ModelCX5, ModelCX6, ModelE810}
}
