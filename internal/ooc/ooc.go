// Package ooc implements the out-of-core N-body machinery of Salmon &
// Warren (1997), which the paper invokes for beyond-memory runs: "Even
// larger simulations are possible using the out-of-core version of our
// code." Particles live in key-sorted blocks on local disk; the in-memory
// working set is a block cache plus the tree's upper levels. A force pass
// streams sink blocks sequentially while the traversal touches source
// blocks through the cache — the disk-friendly access pattern that the
// Morton order makes possible (spatially adjacent particles are adjacent
// on disk).
package ooc

import (
	"fmt"
	"os"
	"path/filepath"

	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/key"
	"spacesim/internal/obs"
	"spacesim/internal/pario"
	"spacesim/internal/vec"
)

// Store is an on-disk, key-sorted particle store divided into fixed-size
// blocks, each a checksummed pario stripe.
type Store struct {
	Dir       string
	BlockSize int
	NumBlocks int
	N         int
	// BlockLo holds the first body key of each block: block b covers keys
	// [BlockLo[b], BlockLo[b+1]).
	BlockLo []key.K
	// BoxLo/BoxSize is the key-labeling cube.
	BoxLo   vec.V3
	BoxSize float64

	cache    map[int]*Block
	cacheCap int
	// Reads counts block loads from disk (cache misses), the out-of-core
	// cost metric.
	Reads int

	// observation handles (no-ops until SetObs).
	o           *obs.Obs
	tr          *obs.Track
	cHit, cMiss *obs.Counter
	prog        *obs.Progress
}

// SetObs attaches an observation handle: block-cache hit/miss counters, the
// run-progress publisher, and, when the tracer is enabled, a host-time row
// for the store's passes.
func (s *Store) SetObs(o *obs.Obs) {
	s.o = o
	s.cHit = o.Reg.Counter("ooc.cache.hits")
	s.cMiss = o.Reg.Counter("ooc.cache.misses")
	s.prog = o.Progress()
	if o.Tracer != nil {
		s.tr = o.Tracer.Track(obs.PidHost, 1, "ooc store")
	}
}

// span opens a host-time span on the store's trace row and publishes the
// pass as the live progress phase; the returned closure ends the span (a
// no-op without a tracer).
func (s *Store) span(name string) func() {
	s.prog.Phase("ooc-" + name)
	if s.tr == nil {
		return func() {}
	}
	h0 := s.o.Tracer.HostNow()
	return func() { s.tr.Span("ooc", name, h0, s.o.Tracer.HostNow()) }
}

// Block is one resident particle block.
type Block struct {
	Index int
	Pos   []vec.V3
	Mass  []float64
	Keys  []key.K
}

// CreateOptions configures store creation.
type CreateOptions struct {
	// BlockSize is the number of particles per on-disk block.
	BlockSize int
	// CacheCap bounds the resident block cache (minimum 2).
	CacheCap int
	// Workers bounds the host goroutines of the Morton-key radix sort
	// (<= 0 means GOMAXPROCS); the on-disk layout is identical for any
	// value.
	Workers int
}

// Create builds a store from in-memory particles: sorts by Morton key,
// splits into blocks of blockSize, and writes each block as a stripe file
// in dir.
func Create(dir string, pos []vec.V3, mass []float64, blockSize, cacheCap int) (*Store, error) {
	return CreateWithOptions(dir, pos, mass, CreateOptions{BlockSize: blockSize, CacheCap: cacheCap})
}

// CreateWithOptions is Create with explicit layout and parallelism options.
// The key sort is the stable parallel radix sort of the tree-build
// pipeline, so coincident particles land on disk in input order.
func CreateWithOptions(dir string, pos []vec.V3, mass []float64, opt CreateOptions) (*Store, error) {
	if len(pos) == 0 || len(pos) != len(mass) {
		return nil, fmt.Errorf("ooc: bad particle set (%d pos, %d mass)", len(pos), len(mass))
	}
	if opt.BlockSize <= 0 {
		return nil, fmt.Errorf("ooc: block size must be positive")
	}
	lo, size := htree.BoundingCube(pos)
	keys := make([]key.K, len(pos))
	for i := range pos {
		keys[i] = key.FromPosition(pos[i], lo, size)
	}
	var sorter key.Sorter
	perm := sorter.SortPerm(keys, opt.Workers)

	st := &Store{
		Dir: dir, BlockSize: opt.BlockSize, N: len(pos),
		BoxLo: lo, BoxSize: size,
		cache: map[int]*Block{}, cacheCap: opt.CacheCap,
	}
	if st.cacheCap < 2 {
		st.cacheCap = 2
	}
	for start := 0; start < len(perm); start += opt.BlockSize {
		end := min(start+opt.BlockSize, len(perm))
		data := make([]float64, 0, 6*(end-start))
		for _, pi := range perm[start:end] {
			p := pos[pi]
			pair := keyToFloatPair(keys[pi])
			data = append(data, p[0], p[1], p[2], mass[pi], pair[0], pair[1])
		}
		b := st.NumBlocks
		if _, err := pario.WriteStripe(dir, "block", b, data); err != nil {
			return nil, err
		}
		st.BlockLo = append(st.BlockLo, keys[perm[start]])
		st.NumBlocks++
	}
	return st, nil
}

// keyToFloatPair encodes a 64-bit key losslessly in two float64 halves.
func keyToFloatPair(k key.K) []float64 {
	return []float64{float64(uint32(k >> 32)), float64(uint32(k))}
}

func keyFromFloatPair(hi, lo float64) key.K {
	return key.K(uint64(uint32(hi))<<32 | uint64(uint32(lo)))
}

// LoadBlock returns block b, reading from disk on a cache miss (evicting
// an arbitrary non-requested resident block when full).
func (s *Store) LoadBlock(b int) (*Block, error) {
	if blk, ok := s.cache[b]; ok {
		s.cHit.Inc()
		return blk, nil
	}
	s.cMiss.Inc()
	path := filepath.Join(s.Dir, fmt.Sprintf("block.%04d", b))
	data, err := pario.ReadStripe(path, b)
	if err != nil {
		return nil, err
	}
	if len(data)%6 != 0 {
		return nil, fmt.Errorf("ooc: block %d malformed", b)
	}
	n := len(data) / 6
	blk := &Block{Index: b, Pos: make([]vec.V3, n), Mass: make([]float64, n), Keys: make([]key.K, n)}
	for i := 0; i < n; i++ {
		o := 6 * i
		blk.Pos[i] = vec.V3{data[o], data[o+1], data[o+2]}
		blk.Mass[i] = data[o+3]
		blk.Keys[i] = keyFromFloatPair(data[o+4], data[o+5])
	}
	s.Reads++
	for len(s.cache) >= s.cacheCap {
		for k := range s.cache {
			if k != b {
				delete(s.cache, k)
				break
			}
		}
	}
	s.cache[b] = blk
	return blk, nil
}

// BlockMultipoles computes each block's multipole by streaming the store
// once — the coarse in-memory tree of the out-of-core pass.
func (s *Store) BlockMultipoles() ([]gravity.Multipole, error) {
	defer s.span("block-multipoles")()
	out := make([]gravity.Multipole, s.NumBlocks)
	for b := 0; b < s.NumBlocks; b++ {
		blk, err := s.LoadBlock(b)
		if err != nil {
			return nil, err
		}
		out[b] = gravity.FromBodies(blk.Pos, blk.Mass)
	}
	return out, nil
}

// blockBmax returns the max distance of a block's bodies from a point.
func blockBmax(blk *Block, from vec.V3) float64 {
	m := 0.0
	for _, p := range blk.Pos {
		if d := p.Dist(from); d > m {
			m = d
		}
	}
	return m
}

// ForcePass computes accelerations for every particle with an out-of-core
// block-tree pass: for each sink block, distant source blocks interact
// through their multipoles; near blocks are loaded and summed directly.
// theta is the block-level acceptance parameter; eps the softening.
// Results are indexed in store (key) order.
func (s *Store) ForcePass(theta, eps float64) ([]vec.V3, error) {
	defer s.span("force-pass")()
	mps := make([]gravity.Multipole, s.NumBlocks)
	bmax := make([]float64, s.NumBlocks)
	for b := 0; b < s.NumBlocks; b++ {
		blk, err := s.LoadBlock(b)
		if err != nil {
			return nil, err
		}
		mps[b] = gravity.FromBodies(blk.Pos, blk.Mass)
		bmax[b] = blockBmax(blk, mps[b].COM)
	}
	acc := make([]vec.V3, 0, s.N)
	// Grouped evaluation per sink block: one interaction list (accepted
	// block multipoles + streamed near-block bodies, owned row by row) is built
	// and applied to every sink in the block by the batched kernel, which
	// skips the zero-separation self terms of the in-block interactions.
	var cells gravity.MultipoleSoA
	var srcs gravity.SoA
	var ev gravity.Evaluator
	var sx, sy, sz, ax, ay, az, pp []float64
	for sink := 0; sink < s.NumBlocks; sink++ {
		sb, err := s.LoadBlock(sink)
		if err != nil {
			return nil, err
		}
		cells.Reset()
		srcs.Reset()
		for src := 0; src < s.NumBlocks; src++ {
			if src == sink {
				continue
			}
			// block-level MAC against the sink block's extent
			d := mps[src].COM.Dist(mps[sink].COM)
			if htree.AcceptMAC(d, bmax[src]+bmax[sink], theta) {
				cells.Push(&mps[src])
				continue
			}
			// near block: stream it onto the direct-interaction list
			nb, err := s.LoadBlock(src)
			if err != nil {
				return nil, err
			}
			for j := range nb.Pos {
				srcs.Push(nb.Pos[j], nb.Mass[j])
			}
		}
		// in-block direct interactions (self pairs excluded by the kernel)
		for j := range sb.Pos {
			srcs.Push(sb.Pos[j], sb.Mass[j])
		}
		ns := len(sb.Pos)
		sx, sy, sz = sx[:0], sy[:0], sz[:0]
		ax, ay, az, pp = ax[:0], ay[:0], az[:0], pp[:0]
		for _, p := range sb.Pos {
			sx = append(sx, p[0])
			sy = append(sy, p[1])
			sz = append(sz, p[2])
			ax = append(ax, 0)
			ay = append(ay, 0)
			az = append(az, 0)
			pp = append(pp, 0)
		}
		ev.Eps = eps
		ev.EvalList(&cells, &srcs, sx, sy, sz, ax, ay, az, pp)
		for i := 0; i < ns; i++ {
			acc = append(acc, vec.V3{ax[i], ay[i], az[i]})
		}
	}
	return acc, nil
}

// TotalMass streams the store and returns the summed mass (an integrity
// check that costs one pass).
func (s *Store) TotalMass() (float64, error) {
	t := 0.0
	for b := 0; b < s.NumBlocks; b++ {
		blk, err := s.LoadBlock(b)
		if err != nil {
			return 0, err
		}
		for _, m := range blk.Mass {
			t += m
		}
	}
	return t, nil
}

// Remove deletes the on-disk blocks.
func (s *Store) Remove() error {
	for b := 0; b < s.NumBlocks; b++ {
		if err := os.Remove(filepath.Join(s.Dir, fmt.Sprintf("block.%04d", b))); err != nil {
			return err
		}
	}
	return nil
}
