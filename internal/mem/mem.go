// Package mem implements the simulated physical memory of the ZION
// platform: a sparse, page-granular RAM holding real bytes. Page tables,
// virtqueue rings, guest images and SM metadata all live in this memory,
// so isolation checks performed above it (PMP, IOPMP, two-stage
// translation) gate access to genuine state rather than to a mock.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"zion/internal/isa"
)

// pageBuf is one 4 KiB backing page. Pages are reached through atomic
// pointers so multiple hart goroutines can materialize and access them
// concurrently (parallel quantum-barrier engine); the bytes themselves
// are raw DRAM — concurrent sub-word access to the *same* word from two
// harts within one quantum is a guest-level data race, exactly as on
// hardware without atomics, and the workloads never do it.
type pageBuf [isa.PageSize]byte

// Geometry of the page directory: one leaf per 2 MiB of RAM, the span
// of one stage-2 level-0 table.
const (
	leafShift = 9
	leafPages = 1 << leafShift
	leafMask  = leafPages - 1
)

// pageLeaf backs one 2 MiB span of RAM: a published pointer per 4 KiB
// page, nil until the page is first touched, and the span's code-page
// registry bits (one per page, set and cleared under codeMu).
type pageLeaf struct {
	pages [leafPages]atomic.Pointer[pageBuf]
	code  [leafPages / 64]atomic.Uint64
}

// PhysMemory is a sparse physical address space. Pages are allocated lazily
// on first touch; reads of untouched pages observe zeros, matching DRAM
// after platform reset in the simulator's model.
//
// Pages are reached through a directory of 2 MiB leaves, each published
// lazily by the first touch of a page in its span (a write, PageSlice)
// or a code-page registration there, so a RAM costs one pointer per
// 2 MiB until it is touched: a 512 MiB machine starts with a 2 KiB
// directory. First touches race with a CAS at both levels, leaf then
// page; a loser discards its copy and uses the winner's, so every caller
// agrees on one leaf and one page per index. Reads and Zero of untouched
// memory create nothing.
//
// PhysMemory performs no protection checks itself: it is the raw DRAM
// below PMP/IOPMP/MMU. Callers must route accesses through those layers.
type PhysMemory struct {
	base    uint64
	size    uint64
	dir     []atomic.Pointer[pageLeaf] // page index >> leafShift -> leaf
	touched atomic.Int64               // materialized page count

	// Code-page registry: pages whose bytes some consumer has decoded and
	// cached (the hart's fast-path block cache). Writes to a registered
	// page notify every watcher so cached decodings are dropped before the
	// stale bytes could execute — this is what keeps self-modifying code,
	// guest image reloads, DMA, and fault injection correct with the block
	// cache on. Refcounted so multiple harts can share a page.
	//
	// The registry is read on every store (NoteWrite) and written only on
	// decode/invalidate, so readers take no lock. Writers serialise on
	// codeMu, keep the refcounts, and publish a page's registered/free
	// state in its leaf's code bits (a page with no leaf is not code).
	// The watcher list is copy-on-write behind an atomic pointer. nCode
	// stays in front as the common-case "no code pages" fast-out.
	codeMu    sync.Mutex
	codePages map[uint64]int // page index -> refcount (codeMu)
	nCode     atomic.Int32   // distinct registered pages (fast-out)
	codeGen   atomic.Uint64  // bumped on every register/unregister
	watchers  atomic.Pointer[[]CodeWatcher]
}

// CodeWatcher observes writes landing in registered code pages.
type CodeWatcher interface {
	// InvalidateCodePage is called with the page-aligned physical address
	// of a registered code page that was just written (or is about to be
	// overwritten by a bulk operation covering it).
	InvalidateCodePage(pageAddr uint64)
}

// zeroPage backs reads of untouched pages on the scalar fast path.
// It is never written.
var zeroPage = new(pageBuf)

// NewPhysMemory creates a RAM of size bytes starting at physical address
// base. Both must be page-aligned.
func NewPhysMemory(base, size uint64) *PhysMemory {
	if base%isa.PageSize != 0 || size%isa.PageSize != 0 {
		panic(fmt.Sprintf("mem: unaligned RAM base=%#x size=%#x", base, size))
	}
	n := size >> isa.PageShift
	return &PhysMemory{base: base, size: size,
		dir: make([]atomic.Pointer[pageLeaf], (n+leafMask)>>leafShift)}
}

// Base returns the first physical address of the RAM.
func (m *PhysMemory) Base() uint64 { return m.base }

// Size returns the RAM size in bytes.
func (m *PhysMemory) Size() uint64 { return m.size }

// Contains reports whether [addr, addr+n) lies entirely inside the RAM.
func (m *PhysMemory) Contains(addr, n uint64) bool {
	return addr >= m.base && n <= m.size && addr-m.base <= m.size-n
}

func (m *PhysMemory) page(addr uint64, alloc bool) ([]byte, uint64) {
	p := m.lookup(addr)
	if p == nil {
		if !alloc {
			return nil, addr & (isa.PageSize - 1)
		}
		p = m.materialize((addr - m.base) >> isa.PageShift)
	}
	return p[:], addr & (isa.PageSize - 1)
}

// lookup returns the backing page of addr, which the caller has checked
// lies in the RAM, or nil if the page is untouched. It creates nothing
// and is small enough to inline into the scalar accessors.
func (m *PhysMemory) lookup(addr uint64) *pageBuf {
	idx := (addr - m.base) >> isa.PageShift
	if l := m.dir[idx>>leafShift].Load(); l != nil {
		return l.pages[idx&leafMask].Load()
	}
	return nil
}

// materialize returns page idx's backing bytes, publishing its leaf and
// then the page on first touch. First touch may race between harts: CAS
// so all agree on one leaf and one page. A loser's freshly zeroed buffer
// is discarded, which is indistinguishable from having never allocated
// it.
func (m *PhysMemory) materialize(idx uint64) *pageBuf {
	slot := &m.leaf(idx >> leafShift).pages[idx&leafMask]
	if p := slot.Load(); p != nil {
		return p
	}
	fresh := new(pageBuf)
	if slot.CompareAndSwap(nil, fresh) {
		m.touched.Add(1)
		return fresh
	}
	return slot.Load()
}

// leaf returns directory entry i, publishing an empty leaf if absent.
func (m *PhysMemory) leaf(i uint64) *pageLeaf {
	slot := &m.dir[i]
	if l := slot.Load(); l != nil {
		return l
	}
	fresh := new(pageLeaf)
	if slot.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return slot.Load()
}

// PageSlice returns the live backing bytes of the page containing addr,
// materializing it if untouched. The slice aliases RAM: writes through it
// are real stores that bypass the code-page write notifications, so only
// two writers may use it: the hart's fast path, which refuses to cache
// stores to code pages, and the hypervisor's device view, which calls
// NoteWrite for the range before each copy into the page. Returns nil
// when addr is outside the RAM.
func (m *PhysMemory) PageSlice(addr uint64) []byte {
	if !m.Contains(addr, 1) {
		return nil
	}
	p, _ := m.page(addr, true)
	return p
}

// AddCodeWatcher registers a watcher for code-page write notifications.
func (m *PhysMemory) AddCodeWatcher(w CodeWatcher) {
	m.codeMu.Lock()
	defer m.codeMu.Unlock()
	ws := append(slices.Clone(m.codeWatchers()), w)
	m.watchers.Store(&ws)
}

// RemoveCodeWatcher detaches a previously added watcher.
func (m *PhysMemory) RemoveCodeWatcher(w CodeWatcher) {
	m.codeMu.Lock()
	defer m.codeMu.Unlock()
	old := m.codeWatchers()
	if i := slices.Index(old, w); i >= 0 {
		ws := slices.Delete(slices.Clone(old), i, i+1)
		m.watchers.Store(&ws)
	}
}

// codeWatchers returns the current watcher list. It is never modified in
// place: writers publish a fresh copy under codeMu.
func (m *PhysMemory) codeWatchers() []CodeWatcher {
	if ws := m.watchers.Load(); ws != nil {
		return *ws
	}
	return nil
}

// codeIndex returns the page index of addr, with ok=false outside the RAM.
func (m *PhysMemory) codeIndex(addr uint64) (idx uint64, ok bool) {
	idx = (addr - m.base) >> isa.PageShift
	return idx, addr >= m.base && idx < m.size>>isa.PageShift
}

// isCode reads page idx's registered bit without a lock. A page whose
// leaf was never published has never been registered.
func (m *PhysMemory) isCode(idx uint64) bool {
	l := m.dir[idx>>leafShift].Load()
	return l != nil && l.code[(idx&leafMask)/64].Load()&(1<<(idx%64)) != 0
}

// setCode publishes page idx's registered bit. Caller holds codeMu, which
// serialises every writer of the code bits.
func (m *PhysMemory) setCode(idx uint64, on bool) {
	w := &m.leaf(idx >> leafShift).code[(idx&leafMask)/64]
	if on {
		w.Store(w.Load() | 1<<(idx%64))
	} else {
		w.Store(w.Load() &^ (1 << (idx % 64)))
	}
}

// RegisterCodePage marks the page containing addr as holding decoded code.
// Pages outside the RAM are never written through it, so they are ignored.
func (m *PhysMemory) RegisterCodePage(addr uint64) {
	idx, ok := m.codeIndex(addr)
	if !ok {
		return
	}
	m.codeMu.Lock()
	if m.codePages == nil {
		m.codePages = make(map[uint64]int)
	}
	m.codePages[idx]++
	if m.codePages[idx] == 1 {
		m.setCode(idx, true)
		m.nCode.Add(1)
	}
	m.codeGen.Add(1)
	m.codeMu.Unlock()
}

// UnregisterCodePage drops one registration of the page containing addr.
func (m *PhysMemory) UnregisterCodePage(addr uint64) {
	idx, ok := m.codeIndex(addr)
	if !ok {
		return
	}
	m.codeMu.Lock()
	if n := m.codePages[idx]; n > 1 {
		m.codePages[idx] = n - 1
	} else if n == 1 {
		delete(m.codePages, idx)
		m.setCode(idx, false)
		m.nCode.Add(-1)
	}
	m.codeGen.Add(1)
	m.codeMu.Unlock()
}

// IsCodePage reports whether the page containing addr is registered.
func (m *PhysMemory) IsCodePage(addr uint64) bool {
	idx, ok := m.codeIndex(addr)
	return ok && m.isCode(idx)
}

// CodeGen returns the registry generation; cached IsCodePage answers are
// valid only while it is unchanged.
func (m *PhysMemory) CodeGen() uint64 { return m.codeGen.Load() }

// NoteWrite notifies watchers about registered code pages overlapping a
// write of n bytes at addr. Every store into RAM runs it first, and a
// copy through PageSlice must too. The atomic empty-registry check keeps
// the cost of this hook to one predictable load on every store when no
// decoded blocks exist; otherwise each page costs one lock-free bit test.
// A page registered before the write has its bit set, so the write
// reaches every watcher. No lock is held while watchers run: they react
// by unregistering pages, which takes codeMu.
func (m *PhysMemory) NoteWrite(addr, n uint64) {
	if m.nCode.Load() == 0 || n == 0 {
		return
	}
	for pa := addr &^ uint64(isa.PageSize-1); pa < addr+n; pa += isa.PageSize {
		if idx, ok := m.codeIndex(pa); !ok || !m.isCode(idx) {
			continue
		}
		for _, w := range m.codeWatchers() {
			w.InvalidateCodePage(pa)
		}
	}
}

// Read copies n bytes starting at addr into a fresh slice. It reports an
// error if the range escapes the RAM.
func (m *PhysMemory) Read(addr, n uint64) ([]byte, error) {
	if !m.Contains(addr, n) {
		return nil, fmt.Errorf("mem: read [%#x,+%d) outside RAM [%#x,+%#x)", addr, n, m.base, m.size)
	}
	out := make([]byte, n)
	off := uint64(0)
	for off < n {
		p, po := m.page(addr+off, false)
		chunk := isa.PageSize - po
		if chunk > n-off {
			chunk = n - off
		}
		if p != nil {
			copy(out[off:off+chunk], p[po:po+chunk])
		}
		off += chunk
	}
	return out, nil
}

// ReadInto copies len(out) bytes starting at addr into the caller's
// buffer — the allocation-free variant of Read for reusable scratch.
// Untouched pages read as zeros, so the destination is fully overwritten
// even where no backing page exists (out may hold stale bytes).
func (m *PhysMemory) ReadInto(addr uint64, out []byte) error {
	n := uint64(len(out))
	if !m.Contains(addr, n) {
		return fmt.Errorf("mem: read [%#x,+%d) outside RAM [%#x,+%#x)", addr, n, m.base, m.size)
	}
	off := uint64(0)
	for off < n {
		p, po := m.page(addr+off, false)
		chunk := isa.PageSize - po
		if chunk > n-off {
			chunk = n - off
		}
		if p != nil {
			copy(out[off:off+chunk], p[po:po+chunk])
		} else {
			clear(out[off : off+chunk])
		}
		off += chunk
	}
	return nil
}

// IsZero reports whether every byte of [addr, addr+n) reads zero. An
// untouched page reads zero and is not materialized by the check.
func (m *PhysMemory) IsZero(addr, n uint64) (bool, error) {
	if !m.Contains(addr, n) {
		return false, fmt.Errorf("mem: read [%#x,+%d) outside RAM [%#x,+%#x)", addr, n, m.base, m.size)
	}
	off := uint64(0)
	for off < n {
		p, po := m.page(addr+off, false)
		chunk := isa.PageSize - po
		if chunk > n-off {
			chunk = n - off
		}
		if p != nil && !bytes.Equal(p[po:po+chunk], zeroPage[:chunk]) {
			return false, nil
		}
		off += chunk
	}
	return true, nil
}

// Write copies data into RAM at addr.
func (m *PhysMemory) Write(addr uint64, data []byte) error {
	n := uint64(len(data))
	if !m.Contains(addr, n) {
		return fmt.Errorf("mem: write [%#x,+%d) outside RAM [%#x,+%#x)", addr, n, m.base, m.size)
	}
	m.NoteWrite(addr, n)
	off := uint64(0)
	for off < n {
		p, po := m.page(addr+off, true)
		chunk := isa.PageSize - po
		if chunk > n-off {
			chunk = n - off
		}
		copy(p[po:po+chunk], data[off:off+chunk])
		off += chunk
	}
	return nil
}

// ReadUint reads a little-endian unsigned integer of width 1, 2, 4 or 8
// bytes at addr. Accesses that stay within one page index the backing
// slice directly and never allocate — this is the interpreter's load path.
func (m *PhysMemory) ReadUint(addr uint64, width int) (uint64, error) {
	po := addr & (isa.PageSize - 1)
	if po+uint64(width) <= isa.PageSize && m.Contains(addr, uint64(width)) {
		p := m.lookup(addr)
		if p == nil {
			p = zeroPage // untouched pages read as zero
		}
		switch width {
		case 1:
			return uint64(p[po]), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[po:])), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[po:])), nil
		case 8:
			return binary.LittleEndian.Uint64(p[po:]), nil
		}
		return 0, fmt.Errorf("mem: bad access width %d", width)
	}
	b, err := m.Read(addr, uint64(width))
	if err != nil {
		return 0, err
	}
	switch width {
	case 1:
		return uint64(b[0]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(b)), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(b)), nil
	case 8:
		return binary.LittleEndian.Uint64(b), nil
	}
	return 0, fmt.Errorf("mem: bad access width %d", width)
}

// WriteUint writes a little-endian unsigned integer of width 1, 2, 4 or 8
// bytes at addr. Like ReadUint, single-page accesses write the backing
// slice in place with zero allocations.
func (m *PhysMemory) WriteUint(addr, val uint64, width int) error {
	switch width {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("mem: bad access width %d", width)
	}
	po := addr & (isa.PageSize - 1)
	if po+uint64(width) <= isa.PageSize && m.Contains(addr, uint64(width)) {
		m.NoteWrite(addr, uint64(width))
		p := m.lookup(addr)
		if p == nil {
			p = m.materialize((addr - m.base) >> isa.PageShift)
		}
		switch width {
		case 1:
			p[po] = byte(val)
		case 2:
			binary.LittleEndian.PutUint16(p[po:], uint16(val))
		case 4:
			binary.LittleEndian.PutUint32(p[po:], uint32(val))
		case 8:
			binary.LittleEndian.PutUint64(p[po:], val)
		}
		return nil
	}
	var b [8]byte
	switch width {
	case 1:
		b[0] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(b[:2], uint16(val))
	case 4:
		binary.LittleEndian.PutUint32(b[:4], uint32(val))
	case 8:
		binary.LittleEndian.PutUint64(b[:8], val)
	default:
		return fmt.Errorf("mem: bad access width %d", width)
	}
	return m.Write(addr, b[:width])
}

// ReadUint64 is a convenience wrapper for 8-byte reads (page-table walks).
func (m *PhysMemory) ReadUint64(addr uint64) (uint64, error) { return m.ReadUint(addr, 8) }

// WriteUint64 is a convenience wrapper for 8-byte writes.
func (m *PhysMemory) WriteUint64(addr, val uint64) error { return m.WriteUint(addr, val, 8) }

// ReadUint32 reads a 4-byte little-endian value (instruction fetch).
func (m *PhysMemory) ReadUint32(addr uint64) (uint32, error) {
	v, err := m.ReadUint(addr, 4)
	return uint32(v), err
}

// Zero clears n bytes starting at addr. Used by the SM when scrubbing
// reclaimed confidential memory.
func (m *PhysMemory) Zero(addr, n uint64) error {
	if !m.Contains(addr, n) {
		return fmt.Errorf("mem: zero [%#x,+%d) outside RAM", addr, n)
	}
	m.NoteWrite(addr, n)
	off := uint64(0)
	for off < n {
		p, po := m.page(addr+off, false)
		chunk := isa.PageSize - po
		if chunk > n-off {
			chunk = n - off
		}
		if p != nil {
			clear(p[po : po+chunk])
		}
		off += chunk
	}
	return nil
}

// Copy moves n bytes from src to dst within the RAM (bounce-buffer copies).
// Overlapping ranges behave like memmove. Non-overlapping copies — the
// common case for guest image loads and bounce buffers — run page-to-page
// without staging the whole range through an allocated buffer.
func (m *PhysMemory) Copy(dst, src, n uint64) error {
	if !m.Contains(src, n) {
		return fmt.Errorf("mem: read [%#x,+%d) outside RAM [%#x,+%#x)", src, n, m.base, m.size)
	}
	if !m.Contains(dst, n) {
		return fmt.Errorf("mem: write [%#x,+%d) outside RAM [%#x,+%#x)", dst, n, m.base, m.size)
	}
	if n == 0 || dst == src {
		return nil
	}
	if src < dst+n && dst < src+n {
		// Overlapping: stage through a buffer to keep memmove semantics.
		b, err := m.Read(src, n)
		if err != nil {
			return err
		}
		return m.Write(dst, b)
	}
	m.NoteWrite(dst, n)
	for off := uint64(0); off < n; {
		sp, spo := m.page(src+off, false)
		dp, dpo := m.page(dst+off, true)
		chunk := isa.PageSize - spo
		if c := isa.PageSize - dpo; c < chunk {
			chunk = c
		}
		if c := n - off; c < chunk {
			chunk = c
		}
		if sp == nil {
			clear(dp[dpo : dpo+chunk]) // untouched source pages read as zero
		} else {
			copy(dp[dpo:dpo+chunk], sp[spo:spo+chunk])
		}
		off += chunk
	}
	return nil
}

// TouchedPages returns how many distinct pages have been materialized,
// which tests use to verify lazy allocation.
func (m *PhysMemory) TouchedPages() int { return int(m.touched.Load()) }

// FlipBit inverts one bit of the byte at addr — the fault-injection
// primitive modelling a DRAM single-event upset. It bypasses nothing the
// other accessors don't (PhysMemory is raw DRAM below every checker);
// injectors use it to corrupt secure pages, page tables, or shared state.
func (m *PhysMemory) FlipBit(addr uint64, bit uint) error {
	if bit > 7 {
		return fmt.Errorf("mem: bit %d out of range", bit)
	}
	if !m.Contains(addr, 1) {
		return fmt.Errorf("mem: flip at %#x outside RAM [%#x,+%#x)", addr, m.base, m.size)
	}
	m.NoteWrite(addr, 1)
	p, po := m.page(addr, true)
	p[po] ^= 1 << bit
	return nil
}
