// Package virtio implements the virtio 1.0 split-ring transport and two
// device back-ends (blk over a thin-provisioned in-memory disk, net with
// a loopback peer),
// together with a virtio-mmio register frontend that plugs into the
// hypervisor's device model.
//
// Ring structures live in guest memory as real bytes. For confidential
// VMs the device's MemIO view resolves only the shared GPA window
// (SWIOTLB territory) — exactly the reachability the paper's split page
// table grants the hypervisor, so a driver that posted a private-memory
// buffer address would fail here just as it would on ZION.
//
// The device side drains rings in batches: PopBatch reads the avail
// index once and walks every pending chain, PushBatch publishes a whole
// batch of completions with one used-index write. Both run allocation-
// free once warm (queue-owned scratch, MemIO.ReadInto), which is what
// lets the serving benchmark sustain millions of requests.
package virtio

import (
	"encoding/binary"
	"fmt"
)

// MemIO is the device's view of guest memory. Implementations enforce
// the platform's DMA policy (IOPMP + shared-window resolution).
// ReadInto fills the caller's buffer (len(b) bytes at gpa) so hot paths
// can reuse scratch instead of allocating per access.
type MemIO interface {
	ReadBytes(gpa uint64, n int) ([]byte, error)
	ReadInto(gpa uint64, b []byte) error
	WriteBytes(gpa uint64, b []byte) error
}

// Windowed is implemented by a MemIO that reaches only one contiguous
// GPA range, [base, base+size): a confidential VM's shared window. The
// pump checks every descriptor's buffer against it while walking the
// chain, so a chain that points outside is refused with an
// OutOfWindowError before any payload byte moves. ok=false means the
// view is unbounded (a normal VM).
type Windowed interface {
	Window() (base, size uint64, ok bool)
}

// window is a MemIO's reachable range as the chain walker checks it.
type window struct {
	base, size uint64
	bounded    bool
}

func windowOf(m MemIO) window {
	var w window
	if wm, ok := m.(Windowed); ok {
		w.base, w.size, w.bounded = wm.Window()
	}
	return w
}

// contains reports whether [gpa, gpa+n) lies inside the window.
func (w window) contains(gpa uint64, n uint32) bool {
	off := gpa - w.base
	return !w.bounded || gpa >= w.base && off < w.size && uint64(n) <= w.size-off
}

// Descriptor flags.
const (
	descFNext  = 1
	descFWrite = 2
)

// desc is one ring descriptor (16 bytes in guest memory).
type desc struct {
	addr  uint64
	len   uint32
	flags uint16
	next  uint16
}

// Queue is the device-side state of one split virtqueue. The unexported
// fields are reusable scratch for the batched pump; a Queue is not safe
// for concurrent use (per the device model: one notify at a time).
type Queue struct {
	Size      uint16
	DescGPA   uint64
	AvailGPA  uint64
	UsedGPA   uint64
	Ready     bool
	lastAvail uint16

	// Scratch, sized on first use. segs is the flat backing store for
	// the segment slices of every chain returned by the last PopBatch;
	// chains is the batch result slice; visited/epoch detect
	// descriptor cycles without a per-walk clear; the byte buffers feed
	// ReadInto/WriteBytes without allocating.
	segs     []segment
	chains   []Chain
	ranges   []rngStash
	visited  []uint32
	epoch    uint32
	descBuf  [16]byte
	idxBuf   [2]byte
	availBuf []byte
	usedBuf  []byte
}

// Chain is one popped descriptor chain: the guest-readable segments
// (device input) and guest-writable segments (device output), in order.
// The segment slices alias queue-owned scratch and stay valid only until
// the next PopBatch on the same queue.
type Chain struct {
	Head     uint16
	ReadGPA  []segment
	WriteGPA []segment
}

type segment struct {
	GPA uint64
	Len uint32
}

// UsedElem is one completion for PushBatch.
type UsedElem struct {
	Head    uint16
	Written uint32
}

// ReadCap returns the total readable length of the chain. It sums in 64
// bits: a chain's segments may add up past 4 GiB.
func (c *Chain) ReadCap() uint64 {
	var n uint64
	for _, s := range c.ReadGPA {
		n += uint64(s.Len)
	}
	return n
}

// Gather fills p with the chain's readable bytes from byte off of the
// readable stream on, one MemIO read per segment it touches. It fails if
// the stream ends before p is full.
func (c *Chain) Gather(m MemIO, p []byte, off uint64) error {
	for _, s := range c.ReadGPA {
		if len(p) == 0 {
			return nil
		}
		if off >= uint64(s.Len) {
			off -= uint64(s.Len)
			continue
		}
		n := min(uint64(s.Len)-off, uint64(len(p)))
		if err := m.ReadInto(s.GPA+off, p[:n]); err != nil {
			return err
		}
		p, off = p[n:], 0
	}
	if len(p) > 0 {
		return fmt.Errorf("virtio: gather of %d bytes past the readable segments", len(p))
	}
	return nil
}

// WriteAll scatters data across the writable segments and returns the
// number of bytes written.
func (c *Chain) WriteAll(m MemIO, data []byte) (uint32, error) {
	written := uint32(0)
	for _, s := range c.WriteGPA {
		if len(data) == 0 {
			break
		}
		n := int(s.Len)
		if n > len(data) {
			n = len(data)
		}
		if err := m.WriteBytes(s.GPA, data[:n]); err != nil {
			return written, err
		}
		data = data[n:]
		written += uint32(n)
	}
	return written, nil
}

// WriteCap returns the total writable capacity of the chain, summed in
// 64 bits like ReadCap.
func (c *Chain) WriteCap() uint64 {
	var n uint64
	for _, s := range c.WriteGPA {
		n += uint64(s.Len)
	}
	return n
}

func (q *Queue) readDescInto(m MemIO, i uint16) (desc, error) {
	if err := m.ReadInto(q.DescGPA+uint64(i)*16, q.descBuf[:]); err != nil {
		return desc{}, err
	}
	return desc{
		addr:  binary.LittleEndian.Uint64(q.descBuf[0:8]),
		len:   binary.LittleEndian.Uint32(q.descBuf[8:12]),
		flags: binary.LittleEndian.Uint16(q.descBuf[12:14]),
		next:  binary.LittleEndian.Uint16(q.descBuf[14:16]),
	}, nil
}

func (q *Queue) readU16Into(m MemIO, gpa uint64) (uint16, error) {
	if err := m.ReadInto(gpa, q.idxBuf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(q.idxBuf[:]), nil
}

// walkChain validates and collects one descriptor chain starting at
// head, appending its segments to q.segs. It returns the index ranges
// [segLo, segMid) for readable and [segMid, segHi) for writable
// segments; the caller slices q.segs after the whole batch is walked
// (appends may reallocate the backing array mid-batch). Every segment
// must lie inside win.
func (q *Queue) walkChain(m MemIO, win window, head uint16) (segLo, segMid, segHi int, err error) {
	if head >= q.Size {
		return 0, 0, 0, &ChainError{Kind: ChainBadIndex, Head: head, Index: head}
	}
	if len(q.visited) < int(q.Size) {
		q.visited = make([]uint32, q.Size)
	}
	q.epoch++
	segLo = len(q.segs)
	segMid = -1
	i := head
	for hops := 0; ; hops++ {
		if hops >= int(q.Size) {
			return 0, 0, 0, &ChainError{Kind: ChainTooLong, Head: head, Index: i}
		}
		if q.visited[i] == q.epoch {
			return 0, 0, 0, &ChainError{Kind: ChainLoop, Head: head, Index: i}
		}
		q.visited[i] = q.epoch
		d, derr := q.readDescInto(m, i)
		if derr != nil {
			return 0, 0, 0, derr
		}
		if d.len > maxSegLen || d.addr+uint64(d.len) < d.addr {
			return 0, 0, 0, &ChainError{Kind: ChainLenOverflow, Head: head, Index: i}
		}
		if !win.contains(d.addr, d.len) {
			return 0, 0, 0, &OutOfWindowError{GPA: d.addr, Len: int(d.len)}
		}
		seg := segment{GPA: d.addr, Len: d.len}
		if d.flags&descFWrite != 0 {
			if segMid < 0 {
				segMid = len(q.segs)
			}
			q.segs = append(q.segs, seg)
		} else {
			if segMid >= 0 {
				return 0, 0, 0, &ChainError{Kind: ChainOrder, Head: head, Index: i}
			}
			q.segs = append(q.segs, seg)
		}
		if d.flags&descFNext == 0 {
			break
		}
		if d.next >= q.Size {
			return 0, 0, 0, &ChainError{Kind: ChainBadIndex, Head: head, Index: d.next}
		}
		i = d.next
	}
	segHi = len(q.segs)
	if segMid < 0 {
		segMid = segHi
	}
	return segLo, segMid, segHi, nil
}

// PopBatch drains up to max pending chains with a single avail-index
// read, so a batch pays the ring round trips once instead of per chain.
// It returns a slice aliasing queue scratch (valid until the next
// PopBatch); max <= 0 means "everything pending". An avail index more
// than Size ahead, or a malformed chain, fails the whole batch — the
// device resets rather than guessing which of a hostile driver's chains
// to trust.
func (q *Queue) PopBatch(m MemIO, max int) ([]Chain, error) {
	if !q.Ready {
		return nil, nil
	}
	availIdx, err := q.readU16Into(m, q.AvailGPA+2)
	if err != nil {
		return nil, err
	}
	pending := availIdx - q.lastAvail // uint16 wraparound arithmetic
	if pending == 0 {
		return nil, nil
	}
	if pending > q.Size {
		return nil, &ChainError{Kind: ChainBadAvail, Head: 0, Index: availIdx}
	}
	n := int(pending)
	if max > 0 && n > max {
		n = max
	}

	// Gather the n head indices in at most two contiguous spans of the
	// avail ring (one if the slot range does not wrap).
	if cap(q.availBuf) < int(q.Size)*2 {
		q.availBuf = make([]byte, int(q.Size)*2)
	}
	buf := q.availBuf[:n*2]
	first := int(q.lastAvail % q.Size)
	span1 := n
	if first+span1 > int(q.Size) {
		span1 = int(q.Size) - first
	}
	if err := m.ReadInto(q.AvailGPA+4+uint64(first)*2, buf[:span1*2]); err != nil {
		return nil, err
	}
	if span1 < n {
		if err := m.ReadInto(q.AvailGPA+4, buf[span1*2:]); err != nil {
			return nil, err
		}
	}

	q.segs = q.segs[:0]
	if cap(q.chains) < int(q.Size) {
		q.chains = make([]Chain, int(q.Size))
		q.ranges = make([]rngStash, int(q.Size))
	}
	// Two passes: collect segment index ranges first (appends to q.segs
	// may reallocate its backing array mid-batch), then bind the slices.
	win := windowOf(m)
	for i := 0; i < n; i++ {
		head := binary.LittleEndian.Uint16(buf[i*2:])
		lo, mid, hi, werr := q.walkChain(m, win, head)
		if werr != nil {
			return nil, werr
		}
		q.chains[i] = Chain{Head: head}
		q.ranges[i] = rngStash{lo: lo, mid: mid, hi: hi}
	}
	for i := 0; i < n; i++ {
		r := q.ranges[i]
		q.chains[i].ReadGPA = q.segs[r.lo:r.mid]
		q.chains[i].WriteGPA = q.segs[r.mid:r.hi]
	}
	q.lastAvail += uint16(n)
	return q.chains[:n], nil
}

// rngStash holds one chain's segment index range between the two
// PopBatch passes.
type rngStash struct{ lo, mid, hi int }

// PushBatch publishes a whole batch of completions: the used-ring
// entries are written in at most two contiguous spans and the used index
// advances once, so the driver observes the entire batch atomically with
// respect to the index (one publish per batch, not per request).
func (q *Queue) PushBatch(m MemIO, used []UsedElem) error {
	if len(used) == 0 {
		return nil
	}
	usedIdx, err := q.readU16Into(m, q.UsedGPA+2)
	if err != nil {
		return err
	}
	if cap(q.usedBuf) < int(q.Size)*8 {
		q.usedBuf = make([]byte, int(q.Size)*8)
	}
	n := len(used)
	buf := q.usedBuf[:n*8]
	for i, u := range used {
		binary.LittleEndian.PutUint32(buf[i*8:], uint32(u.Head))
		binary.LittleEndian.PutUint32(buf[i*8+4:], u.Written)
	}
	first := int(usedIdx % q.Size)
	span1 := n
	if first+span1 > int(q.Size) {
		span1 = int(q.Size) - first
	}
	if err := m.WriteBytes(q.UsedGPA+4+uint64(first)*8, buf[:span1*8]); err != nil {
		return err
	}
	if span1 < n {
		if err := m.WriteBytes(q.UsedGPA+4, buf[span1*8:]); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint16(q.idxBuf[:], usedIdx+uint16(n))
	return m.WriteBytes(q.UsedGPA+2, q.idxBuf[:])
}

// DriverView is the guest-driver half of the protocol, used by the Go
// portions of the mini guest kernel (and by tests and the serving load
// generator) to post buffers the way a real driver would: write
// descriptors, publish in avail, advance idx, then ring the doorbell.
// Its hot methods run allocation-free (view-owned scratch).
type DriverView struct {
	Q       *Queue
	M       MemIO
	freeIdx uint16
	avail   uint16
	used    uint16

	descBuf [16]byte
	idxBuf  [2]byte
	elemBuf [8]byte
}

// NewDriverView wraps a queue from the driver side.
func NewDriverView(q *Queue, m MemIO) *DriverView {
	return &DriverView{Q: q, M: m}
}

// PostChain writes a descriptor chain and publishes it. segs alternate
// (gpa, len, writable); it returns the head index.
func (d *DriverView) PostChain(segs []DriverSeg) (uint16, error) {
	if len(segs) == 0 {
		return 0, fmt.Errorf("virtio: empty chain")
	}
	head := d.freeIdx
	for i, s := range segs {
		idx := (head + uint16(i)) % d.Q.Size
		var flags uint16
		if s.Writable {
			flags |= descFWrite
		}
		next := uint16(0)
		if i < len(segs)-1 {
			flags |= descFNext
			next = (idx + 1) % d.Q.Size
		}
		binary.LittleEndian.PutUint64(d.descBuf[0:8], s.GPA)
		binary.LittleEndian.PutUint32(d.descBuf[8:12], s.Len)
		binary.LittleEndian.PutUint16(d.descBuf[12:14], flags)
		binary.LittleEndian.PutUint16(d.descBuf[14:16], next)
		if err := d.M.WriteBytes(d.Q.DescGPA+uint64(idx)*16, d.descBuf[:]); err != nil {
			return 0, err
		}
	}
	d.freeIdx = (head + uint16(len(segs))) % d.Q.Size
	slot := d.avail % d.Q.Size
	binary.LittleEndian.PutUint16(d.idxBuf[:], head)
	if err := d.M.WriteBytes(d.Q.AvailGPA+4+uint64(slot)*2, d.idxBuf[:]); err != nil {
		return 0, err
	}
	d.avail++
	binary.LittleEndian.PutUint16(d.idxBuf[:], d.avail)
	return head, d.M.WriteBytes(d.Q.AvailGPA+2, d.idxBuf[:])
}

// DriverSeg describes one buffer in a chain being posted.
type DriverSeg struct {
	GPA      uint64
	Len      uint32
	Writable bool
}

// PollUsed returns the next completion, or ok=false when none is pending.
func (d *DriverView) PollUsed() (head uint16, written uint32, ok bool, err error) {
	if err := d.M.ReadInto(d.Q.UsedGPA+2, d.idxBuf[:]); err != nil {
		return 0, 0, false, err
	}
	idx := binary.LittleEndian.Uint16(d.idxBuf[:])
	if d.used == idx {
		return 0, 0, false, nil
	}
	slot := d.used % d.Q.Size
	base := d.Q.UsedGPA + 4 + uint64(slot)*8
	if err := d.M.ReadInto(base, d.elemBuf[:]); err != nil {
		return 0, 0, false, err
	}
	d.used++
	return uint16(binary.LittleEndian.Uint32(d.elemBuf[0:4])), binary.LittleEndian.Uint32(d.elemBuf[4:8]), true, nil
}
