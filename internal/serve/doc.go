// Package serve implements the HTTP field/chunk serving layer over the
// CFC3 archive and CFC2/CFC1 blob formats: a Server that mounts one or
// more compressed containers and exposes their manifests, whole decoded
// fields, and random-access chunks over a small versioned REST surface.
//
// Mounts are backed by an io.ReaderAt — an in-memory blob (Mount), or a
// file opened with MountFile (memory-mapped on Linux) — and nothing
// beyond each container's manifest is resident, so archives larger than
// RAM serve fine: payload bytes are read on demand, checksum-verified,
// and retained only inside a size-bounded LRU.
//
// Every data request asks for one region of a field — the whole field or
// one chunk's slab range — through one handler, one lookup, one anchor
// resolve and one decode, checked against the manifest dims cut to the
// region. Whole fields, chunks and compressed payloads each have a
// size-bounded LRU with singleflight coalescing, keyed by Merkle-style
// content addresses over the payload bytes and the anchor chain, so
// anchor decodes are shared across fields, requests, and archives of
// successive timesteps whose anchors did not change.
//
// The anchors of a region are the same region of each anchor field: a
// dependent chunk decodes only the anchor chunks whose slab ranges
// intersect it (recursively for anchor chains), never whole anchor
// fields. See docs/ARCHITECTURE.md for the full request path.
package serve
