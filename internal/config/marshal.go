package config

import "github.com/lumina-sim/lumina/internal/yamlite"

// MarshalYAML renders the configuration in the yamlite format Load/Parse
// read — so the fuzzer's anomalous configurations, or any
// programmatically built test, can be saved and replayed with
// `lumina run`.
func (t Test) MarshalYAML() ([]byte, error) {
	doc := map[string]any{
		"name":        t.Name,
		"seed":        t.Seed,
		"requester":   hostDoc(t.Requester),
		"responder":   hostDoc(t.Responder),
		"traffic":     trafficDoc(t.Traffic),
		"switch":      switchDoc(t.Switch),
		"dumper-pool": dumperDoc(t.Dumpers),
	}
	// Emitted only when present, so pair-testbed documents (the whole
	// existing corpus) marshal byte-identically to before fabrics existed.
	if f := t.Fabric; f != nil {
		doc["fabric"] = map[string]any{
			"leaves":         int64(f.Leaves),
			"hosts-per-leaf": int64(f.HostsPerLeaf),
			"uplink-gbps":    f.UplinkGbps,
			"pattern":        f.Pattern,
		}
	}
	return yamlite.Marshal(doc)
}

func hostDoc(h Host) map[string]any {
	nic := map[string]any{"type": h.NIC.Type}
	if h.NIC.IfName != "" {
		nic["if-name"] = h.NIC.IfName
	}
	if h.NIC.SwitchPort != 0 {
		nic["switch-port"] = int64(h.NIC.SwitchPort)
	}
	var ips []any
	for _, ip := range h.NIC.IPList {
		ips = append(ips, ip.String())
	}
	nic["ip-list"] = ips

	doc := map[string]any{
		"nic": nic,
		"roce-parameters": map[string]any{
			"dcqcn-rp-enable":       h.RoCE.DCQCNRPEnable,
			"dcqcn-np-enable":       h.RoCE.DCQCNNPEnable,
			"min-time-between-cnps": int64(h.RoCE.MinTimeBetweenCNPs),
			"adaptive-retrans":      h.RoCE.AdaptiveRetrans,
			"slow-restart":          h.RoCE.SlowRestart,
		},
	}
	if h.Workspace != "" {
		doc["workspace"] = h.Workspace
	}
	if h.ControlIP != "" {
		doc["control-ip"] = h.ControlIP
	}
	if len(h.ETS) > 0 {
		var qs []any
		for _, q := range h.ETS {
			m := map[string]any{}
			if q.Strict {
				m["strict"] = true
			} else {
				m["weight"] = int64(q.Weight)
			}
			qs = append(qs, m)
		}
		doc["ets-queues"] = qs
	}
	return doc
}

func trafficDoc(tr Traffic) map[string]any {
	doc := map[string]any{
		"num-connections":        int64(tr.NumConnections),
		"rdma-verb":              tr.Verb,
		"num-msgs-per-qp":        int64(tr.NumMsgsPerQP),
		"mtu":                    int64(tr.MTU),
		"message-size":           int64(tr.MessageSize),
		"multi-gid":              tr.MultiGID,
		"barrier-sync":           tr.BarrierSync,
		"tx-depth":               int64(tr.TxDepth),
		"min-retransmit-timeout": int64(tr.MinRetransmitTimeout),
		"max-retransmit-retry":   int64(tr.MaxRetransmitRetry),
	}
	if len(tr.QPTrafficClass) > 0 {
		var tcs []any
		for _, tc := range tr.QPTrafficClass {
			tcs = append(tcs, int64(tc))
		}
		doc["qp-traffic-class"] = tcs
	}
	// Transport fields are emitted only in their canonical (validated)
	// non-default form, so every pre-transport document still marshals —
	// and content-hashes — byte-identically.
	if tr.Transport != "" {
		doc["transport"] = tr.Transport
	}
	if len(tr.QPTransport) > 0 {
		var ts []any
		for _, s := range tr.QPTransport {
			ts = append(ts, s)
		}
		doc["qp-transport"] = ts
	}
	if len(tr.Events) > 0 {
		var evs []any
		for _, e := range tr.Events {
			m := map[string]any{
				"qpn":  int64(e.QPN),
				"psn":  int64(e.PSN),
				"iter": int64(e.Iter),
				"type": e.Type,
			}
			if e.Every > 0 {
				m["every"] = int64(e.Every)
			}
			if e.DelayUs > 0 {
				m["delay-us"] = int64(e.DelayUs)
			}
			if e.Offset > 0 {
				m["offset"] = int64(e.Offset)
			}
			evs = append(evs, m)
		}
		doc["data-pkt-events"] = evs
	}
	return doc
}

func switchDoc(s Switch) map[string]any {
	doc := map[string]any{
		"pipeline-latency-ns": int64(s.PipelineLatencyNs),
		"mirror":              s.Mirror,
		"inject":              s.Inject,
	}
	if s.L2Only {
		doc["l2-only"] = true
	}
	return doc
}

func dumperDoc(d DumperPool) map[string]any {
	doc := map[string]any{
		"nodes":            int64(d.Nodes),
		"cores-per-node":   int64(d.CoresPerNode),
		"per-core-gbps":    d.PerCoreGbps,
		"node-gbps":        d.NodeGbps,
		"trim-bytes":       int64(d.TrimBytes),
		"rss-port-rewrite": d.RSSPortRewrite,
		"per-packet-lb":    d.PerPacketLB,
	}
	if len(d.Weights) > 0 {
		var ws []any
		for _, w := range d.Weights {
			ws = append(ws, int64(w))
		}
		doc["weights"] = ws
	}
	return doc
}
