// Package pario implements the parallel checkpoint I/O of Section 4.3:
// every rank streams its particle data to its own local disk, so the
// aggregate rate scales with the node count ("I/O was done in parallel to
// and from the local disk on each processor, so the peak I/O rate was near
// 7 Gbytes/sec"). It provides both a real striped checkpoint format (one
// file per rank, checksummed, round-trippable) and the virtual-time cost
// model used by the cluster-scale runs.
package pario

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"

	"spacesim/internal/machine"
)

// magic identifies a checkpoint stripe file.
const magic = 0x53534350 // "SSCP"

// Sentinel errors distinguishing recoverable stripe damage from caller bugs.
// The checkpoint-restart driver treats ErrCorrupt as "fall back to an older
// checkpoint" and ErrWrongRank as a misrouted read it must not paper over.
var (
	// ErrCorrupt marks a stripe that cannot be trusted: bad magic, a
	// truncated file, or a CRC mismatch.
	ErrCorrupt = errors.New("pario: corrupt stripe")
	// ErrWrongRank marks an intact stripe that belongs to a different rank.
	ErrWrongRank = errors.New("pario: stripe rank mismatch")
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// WriteStripe writes one rank's float64 payload to dir/name.rank with a
// header (magic, rank, count) and trailing CRC64.
func WriteStripe(dir, name string, rank int, data []float64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s.%04d", name, rank))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	h := crc64.New(crcTable)
	out := io.MultiWriter(w, h)
	hdr := []uint64{magic, uint64(rank), uint64(len(data))}
	for _, v := range hdr {
		if err := binary.Write(out, binary.LittleEndian, v); err != nil {
			return "", err
		}
	}
	buf := make([]byte, 8)
	for _, v := range data {
		binary.LittleEndian.PutUint64(buf, uint64frombits(v))
		if _, err := out.Write(buf); err != nil {
			return "", err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, h.Sum64()); err != nil {
		return "", err
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// stripeOverhead is the non-payload size of a stripe: three header words
// (magic, rank, count) plus the trailing CRC64.
const stripeOverhead = 4 * 8

// ReadStripe reads and verifies a stripe, returning the payload. Damage is
// reported through wrapped sentinels: errors.Is(err, ErrCorrupt) for bad
// magic, truncation, or a checksum mismatch; errors.Is(err, ErrWrongRank)
// when the stripe carries another rank's header.
func ReadStripe(path string, wantRank int) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	r := bufio.NewReader(f)
	h := crc64.New(crcTable)
	tee := io.TeeReader(r, h)
	var mg, rank, count uint64
	for _, p := range []*uint64{&mg, &rank, &count} {
		if err := binary.Read(tee, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("%w: %s: truncated header: %v", ErrCorrupt, path, err)
		}
	}
	if mg != magic {
		return nil, fmt.Errorf("%w: %s: bad magic %#x", ErrCorrupt, path, mg)
	}
	if int(rank) != wantRank {
		return nil, fmt.Errorf("%w: %s: stripe rank %d, want %d", ErrWrongRank, path, rank, wantRank)
	}
	// Validate the payload count against the file size before allocating:
	// a corrupted count must not turn into a giant allocation, so it is held
	// to the count the size implies, with no product of it that could wrap.
	if payload := fi.Size() - stripeOverhead; payload < 0 || payload%8 != 0 || count != uint64(payload/8) {
		return nil, fmt.Errorf("%w: %s: %d bytes on disk, header promises %d values",
			ErrCorrupt, path, fi.Size(), count)
	}
	data := make([]float64, count)
	buf := make([]byte, 8)
	for i := range data {
		if _, err := io.ReadFull(tee, buf); err != nil {
			return nil, fmt.Errorf("%w: %s: truncated payload: %v", ErrCorrupt, path, err)
		}
		data[i] = float64frombits(binary.LittleEndian.Uint64(buf))
	}
	sum := h.Sum64()
	var want uint64
	if err := binary.Read(r, binary.LittleEndian, &want); err != nil {
		return nil, fmt.Errorf("%w: %s: truncated checksum: %v", ErrCorrupt, path, err)
	}
	if sum != want {
		return nil, fmt.Errorf("%w: %s: CRC mismatch", ErrCorrupt, path)
	}
	return data, nil
}

// RunModel reproduces the Section 4.3 production-run arithmetic: a 24-hour
// run on 250 processors saving 1.5 TB while performing 1e16 flops. The
// per-disk effective rate during checkpoint phases (many medium writes with
// seeks and filesystem overhead on a 5400 rpm drive) is far below the
// streaming peak; the aggregate peak is the 250 disks streaming at once.
type RunModel struct {
	Procs        int
	HoursElapsed float64
	BytesSaved   float64
	Flops        float64
	Node         machine.Node
	// EffDiskBps is the sustained per-disk rate during checkpoint phases.
	EffDiskBps float64
}

// Fig7Run returns the paper's quoted configuration.
func Fig7Run() RunModel {
	return RunModel{
		Procs:        250,
		HoursElapsed: 24,
		BytesSaved:   1.5e12,
		Flops:        1e16,
		Node:         machine.SpaceSimulatorNode,
		EffDiskBps:   1.67e6,
	}
}

// IOTime returns the total time spent in I/O phases.
func (m RunModel) IOTime() float64 {
	return m.BytesSaved / (float64(m.Procs) * m.EffDiskBps)
}

// AvgIORate returns the aggregate rate averaged over the I/O phases
// (the paper: 417 MB/s).
func (m RunModel) AvgIORate() float64 {
	return m.BytesSaved / m.IOTime()
}

// AvgFlops returns the compute rate averaged over the whole 24 hours
// (the paper: 112 Gflop/s).
func (m RunModel) AvgFlops() float64 {
	return m.Flops / (m.HoursElapsed * 3600)
}

// PeakIORate returns the aggregate local-disk streaming rate (the paper:
// "near 7 Gbytes/sec" — 250 disks in parallel).
func (m RunModel) PeakIORate() float64 {
	return float64(m.Procs) * m.Node.DiskBps
}

func uint64frombits(f float64) uint64 { return math.Float64bits(f) }

func float64frombits(u uint64) float64 { return math.Float64frombits(u) }
