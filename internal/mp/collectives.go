package mp

// Collective operations, built from point-to-point messages with the
// standard logarithmic algorithms so that their virtual-time cost emerges
// from the network model (latency-dominated at small sizes,
// bandwidth-dominated at large ones) rather than being postulated.

import "math"

// Op is a pointwise reduction operator over float64.
type Op func(a, b float64) float64

// Standard reduction operators. OpMax and OpMin are math.Max and math.Min:
// commutative to the sign of zero, and a NaN on any rank is a NaN on all.
var (
	OpSum Op = func(a, b float64) float64 { return a + b }
	OpMax Op = math.Max
	OpMin Op = math.Min
)

// Barrier blocks until all ranks reach it (dissemination algorithm:
// ceil(log2 n) rounds of pairwise notifications).
func (r *Rank) Barrier() {
	n := r.w.n
	if n == 1 {
		return
	}
	defer r.collective("barrier")()
	for dist := 1; dist < n; dist *= 2 {
		dst := (r.id + dist) % n
		src := (r.id - dist + n) % n
		r.Send(dst, tagBarrier, nil, 0)
		r.Recv(src, tagBarrier)
	}
}

// Bcast distributes root's buffer to all ranks via a binomial tree and
// returns the received copy (root returns its own buf).
func (r *Rank) Bcast(root int, buf []float64) []float64 {
	n := r.w.n
	if n == 1 {
		return buf
	}
	defer r.collective("bcast")()
	// Rotate ranks so the root is virtual rank 0.
	vr := (r.id - root + n) % n
	if vr != 0 {
		// Receive from parent: clear lowest set bit.
		parent := ((vr & (vr - 1)) + root) % n
		buf, _ = r.RecvFloats(parent, tagBcast)
	}
	// Forward to children: set bits above the lowest set bit.
	for bit := 1; bit < n; bit *= 2 {
		if vr&bit != 0 {
			break
		}
		child := vr | bit
		if child < n {
			r.SendFloats((child+root)%n, tagBcast, buf)
		}
	}
	return buf
}

// Allreduce combines buffers elementwise with op and returns the result on
// every rank (recursive doubling; for non-power-of-two sizes the excess
// ranks fold into partners first).
func (r *Rank) Allreduce(buf []float64, op Op) []float64 {
	n := r.w.n
	acc := append([]float64(nil), buf...)
	if n == 1 {
		return acc
	}
	defer r.collective("allreduce")()
	// Largest power of two <= n.
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	combine := func(other []float64) {
		r.Charge(float64(len(acc)), 0.5, float64(16*len(acc)))
		for i := range acc {
			acc[i] = op(acc[i], other[i])
		}
	}
	// Phase 1: ranks >= pof2 send to (id - pof2) and wait for the result.
	if r.id >= pof2 {
		r.SendFloats(r.id-pof2, tagReduce, acc)
		acc, _ = r.RecvFloats(r.id-pof2, tagBcast)
		return acc
	}
	if r.id < rem {
		other, _ := r.RecvFloats(r.id+pof2, tagReduce)
		combine(other)
	}
	// Phase 2: recursive doubling among [0, pof2).
	for bit := 1; bit < pof2; bit *= 2 {
		partner := r.id ^ bit
		r.SendFloats(partner, tagReduce, acc)
		other, _ := r.RecvFloats(partner, tagReduce)
		combine(other)
	}
	// Phase 3: return results to the folded ranks.
	if r.id < rem {
		r.SendFloats(r.id+pof2, tagBcast, acc)
	}
	return acc
}

// AllreduceScalar reduces a single value with op on every rank.
func (r *Rank) AllreduceScalar(v float64, op Op) float64 {
	return r.Allreduce([]float64{v}, op)[0]
}

// Gather collects per-rank chunks on root, which receives them indexed by
// source rank; other ranks return nil. Because the root matches AnySource,
// each Gather call carries a round-stamped tag so back-to-back gathers
// cannot steal each other's chunks (all ranks must call collectives in the
// same order, so the per-rank round counters agree globally).
func (r *Rank) Gather(root int, chunk []float64) [][]float64 {
	n := r.w.n
	if n > 1 {
		defer r.collective("gather")()
	}
	tag := tagGatherBase - int(r.gatherSeq%1024)
	r.gatherSeq++
	if r.id != root {
		r.SendFloats(root, tag, chunk)
		return nil
	}
	out := make([][]float64, n)
	out[root] = chunk
	for i := 0; i < n-1; i++ {
		data, st := r.RecvFloats(AnySource, tag)
		out[st.Source] = data
	}
	return out
}

// tagGatherBase starts the reserved tag range for gather rounds
// (-2000 .. -3023).
const tagGatherBase = -2000

// Alltoall delivers chunks[d] to rank d and returns the received chunks
// indexed by source (AlltoallAny). Chunks are delivered by reference: the
// sender must not mutate one after the call.
func (r *Rank) Alltoall(chunks [][]float64) [][]float64 {
	parts := make([]any, len(chunks))
	bytes := make([]int64, len(chunks))
	for d, c := range chunks {
		parts[d], bytes[d] = c, SizeFloats(len(c))
	}
	parts = r.AlltoallAny(parts, bytes)
	out := make([][]float64, len(parts))
	for i, p := range parts {
		out[i] = p.([]float64)
	}
	return out
}

// AlltoallAny delivers chunks[d] to rank d, with caller-supplied wire sizes
// (bytes[d] accounts chunk[d]), and returns the received chunks indexed by
// source. Pairwise-exchange algorithm with congested-network bandwidth
// accounting, since an all-to-all saturates the fabric (this is where the
// module backplane and trunk limits of Section 3.1 bite). Payloads are
// delivered by reference: the sender must not mutate a chunk after the call.
func (r *Rank) AlltoallAny(chunks []any, bytes []int64) []any {
	n := r.w.n
	if len(chunks) != n || len(bytes) != n {
		panic("mp: AlltoallAny needs one chunk and size per rank")
	}
	if n > 1 {
		defer r.collective("alltoall")()
	}
	out := make([]any, n)
	out[r.id] = chunks[r.id]
	if n&(n-1) == 0 {
		// Power of two: XOR pairwise exchange.
		for round := 1; round < n; round++ {
			partner := r.id ^ round
			r.sendAt(partner, tagAlltoall, chunks[partner], bytes[partner], true, 0)
			data, _ := r.Recv(partner, tagAlltoall)
			out[partner] = data
		}
		return out
	}
	// General n: shifted-ring exchange; in round k send to id+k, receive
	// from id-k.
	for round := 1; round < n; round++ {
		dst := (r.id + round) % n
		src := (r.id - round + n) % n
		r.sendAt(dst, tagAlltoall, chunks[dst], bytes[dst], true, 0)
		data, _ := r.Recv(src, tagAlltoall)
		out[src] = data
	}
	return out
}

// AllgatherAny collects every rank's payload on every rank, with the given
// accounted wire size, indexed by rank. Payloads are delivered by reference.
//
// Bruck's algorithm, in ceil(log2 n) rounds: before the round at distance d
// a rank holds the chunks of itself and of the d-1 ranks below it (mod n);
// it sends the first min(d, n-d) of them to the rank d above and receives as
// many from the rank d below. With chunks of equal size every rank sends n-1
// chunks' bytes, as in a ring, in one message a round.
func (r *Rank) AllgatherAny(chunk any, bytes int64) []any {
	n := r.w.n
	out := make([]any, n)
	out[r.id] = chunk
	if n == 1 {
		return out
	}
	defer r.collective("allgather")()
	// held[k] is the chunk of rank id-k; a round only appends, so what was
	// sent stays as it was while the receiver reads it.
	held := make([]any, 1, n)
	sizes := make([]int64, 1, n)
	held[0], sizes[0] = chunk, bytes
	for d := 1; d < n; d *= 2 {
		cnt := min(d, n-d)
		var b int64
		for _, s := range sizes[:cnt] {
			b += s
		}
		r.Send((r.id+d)%n, tagAllgather, bruckBlock{held[:cnt:cnt], sizes[:cnt:cnt]}, b)
		data, _ := r.Recv((r.id-d+n)%n, tagAllgather)
		in := data.(bruckBlock)
		held = append(held, in.chunks...)
		sizes = append(sizes, in.sizes...)
	}
	for k, c := range held {
		out[(r.id-k+n)%n] = c
	}
	return out
}

// bruckBlock is one round's message of AllgatherAny: consecutive chunks, by
// reference, and their accounted sizes.
type bruckBlock struct {
	chunks []any
	sizes  []int64
}

// Exchange is a sparse all-to-all: it sends chunks[k], accounted at
// bytes[k], to rank to[k], and returns one payload from each rank in from,
// in from's order. Both sides must already know who talks to whom — every
// rank in to must list this one in its from, and the other way round —
// and neither list may name this rank. Payloads are delivered by
// reference. The messages take the loaded-network model of Alltoall, and
// the sender's NIC streams them one after another, so a dense exchange
// costs the sum of its transfers, not the longest one.
func (r *Rank) Exchange(to []int, chunks []any, bytes []int64, from []int) []any {
	if len(chunks) != len(to) || len(bytes) != len(to) {
		panic("mp: Exchange needs one chunk and size per destination")
	}
	out := make([]any, len(from))
	if len(to) == 0 && len(from) == 0 {
		return out
	}
	defer r.collective("exchange")()
	nic := 0.0
	for k, d := range to {
		nic = r.sendAt(d, tagExchange, chunks[k], bytes[k], true, nic)
	}
	for k, s := range from {
		out[k], _ = r.Recv(s, tagExchange)
	}
	return out
}
