package main

import (
	"fmt"
	"math"
)

// layerTimes is one traced request's time per layer, in milliseconds. Each
// span contributes its self time (its duration minus its children's), so
// the layers of one request add up to its request span.
type layerTimes struct {
	request       float64 // root request span
	respond       float64 // request self time: encode and write the body
	lookupSelf    float64 // cache_lookup self time, all lookups
	anchorResolve float64 // anchor_decode self time: serve's anchor recursion
	payloadRead   float64 // payload_read spans: archive payload reads
	anchorDecode  float64 // chunk/field decodes of anchors
	chunkDecode   float64 // the requested field's own chunk decode
	fieldDecode   float64 // the requested field's own whole-field decode
	other         float64 // any span this benchmark does not name
	payloadReads  int
	decodes       int
}

// layersOf attributes a request's span tree to layers.
func layersOf(doc *traceDoc) (layerTimes, error) {
	var lt layerTimes
	if doc.Dropped > 0 {
		return lt, fmt.Errorf("trace %s dropped %d spans", doc.TraceID, doc.Dropped)
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Name != "request" {
		return lt, fmt.Errorf("trace %s: want one root request span, got %d roots", doc.TraceID, len(doc.Spans))
	}
	var walk func(n *traceNode, underAnchor bool)
	walk = func(n *traceNode, underAnchor bool) {
		self := n.DurNs
		for _, c := range n.Children {
			self -= c.DurNs
		}
		v := math.Max(float64(self), 0) / 1e6
		switch n.Name {
		case "request":
			lt.respond += v
		case "cache_lookup":
			lt.lookupSelf += v
		case "anchor_decode":
			lt.anchorResolve += v
			underAnchor = true
		case "payload_read":
			lt.payloadRead += v
			lt.payloadReads++
		case "chunk_decode", "field_decode":
			lt.decodes++
			switch {
			case underAnchor:
				lt.anchorDecode += v
			case n.Name == "chunk_decode":
				lt.chunkDecode += v
			default:
				lt.fieldDecode += v
			}
		default:
			lt.other += v
		}
		for _, c := range n.Children {
			walk(c, underAnchor)
		}
	}
	root := doc.Spans[0]
	lt.request = float64(root.DurNs) / 1e6
	walk(root, false)
	return lt, nil
}

// layerSamples collects layerTimes over a traced run.
type layerSamples struct {
	all    []layerTimes
	client []float64 // client latency minus the request span, ms
}

func (s *layerSamples) p50(f func(layerTimes) float64) float64 {
	vals := make([]float64, len(s.all))
	for i, l := range s.all {
		vals[i] = f(l)
	}
	return median(vals)
}

// reportLayers records the per-layer medians and reconciles them with two
// figures measured apart from the spans, on the untraced server:
// serverMean, its mean request time from its own request-latency
// histogram, and clientP50, the median latency its client saw. The layers'
// medians must sum to within 10% of serverMean, and the request span plus
// the client's share to within 10% of clientP50. Within one traced request
// the layers add up to its request span by construction, so these checks
// catch tracing that distorts what it times and medians that do not add
// up; server time that no span covers lands in serve.respond_ms.
// chunkMiB and fieldMiB are the decoded sizes of a chunk and of the field.
func reportLayers(rep *report, s *layerSamples, serverMean, clientP50, chunkMiB, fieldMiB float64) error {
	if len(s.all) == 0 {
		return fmt.Errorf("no traced request completed")
	}
	request := s.p50(func(l layerTimes) float64 { return l.request })
	client := median(s.client)
	layers := map[string]func(layerTimes) float64{
		"serve.respond_ms.p50":             func(l layerTimes) float64 { return l.respond },
		"serve.lookup_self_ms.p50":         func(l layerTimes) float64 { return l.lookupSelf },
		"serve.anchor_resolve_self_ms.p50": func(l layerTimes) float64 { return l.anchorResolve },
		"archive.payload_read_ms.p50":      func(l layerTimes) float64 { return l.payloadRead },
		"core.anchor_decode_ms.p50":        func(l layerTimes) float64 { return l.anchorDecode },
		"core.chunk_decode_ms.p50":         func(l layerTimes) float64 { return l.chunkDecode },
		"core.field_decode_ms.p50":         func(l layerTimes) float64 { return l.fieldDecode },
	}
	// Spans the benchmark does not name still count toward the sum.
	layerSum := s.p50(func(l layerTimes) float64 { return l.other })
	for name, f := range layers {
		v := s.p50(f)
		layerSum += v
		rep.set(name, v)
	}
	rep.set("serve.request_ms.p50", request)
	rep.set("http.client_ms.p50", client)
	rep.set("core.decodes_per_req", s.p50(func(l layerTimes) float64 { return float64(l.decodes) }))
	rep.set("archive.payload_reads_per_req", s.p50(func(l layerTimes) float64 { return float64(l.payloadReads) }))
	if v := rep.values["core.chunk_decode_ms.p50"]; v > 0 {
		rep.set("core.chunk_decode_mbps", chunkMiB/(v/1e3))
	}
	if v := rep.values["core.field_decode_ms.p50"]; v > 0 {
		rep.set("core.field_decode_mbps", fieldMiB/(v/1e3))
	}
	layerRes := math.Abs(layerSum-serverMean) / serverMean
	clientRes := math.Abs(request+client-clientP50) / clientP50
	rep.set("trace.layer_residual", layerRes)
	rep.set("trace.client_residual", clientRes)
	if layerRes > 0.10 {
		return fmt.Errorf("layers do not reconcile: their medians sum to %.3f ms, the untraced server's mean request time is %.3f ms", layerSum, serverMean)
	}
	if clientRes > 0.10 {
		return fmt.Errorf("client latency does not reconcile: request %.3f ms + client %.3f ms against the untraced p50 %.3f ms", request, client, clientP50)
	}
	return nil
}
