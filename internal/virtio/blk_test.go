package virtio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// blkRequest posts one blk request chain (header at l.buf, then segs,
// then the status byte at l.buf+0x80) and rings the doorbell. It returns
// the status byte and the device error.
func blkRequest(t *testing.T, b *Blk, drv *DriverView, mem MemIO, l ringLayout,
	typ uint32, sector uint64, segs []DriverSeg) (byte, error) {
	t.Helper()
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], typ)
	binary.LittleEndian.PutUint64(hdr[8:], sector)
	if err := mem.WriteBytes(l.buf, hdr[:]); err != nil {
		t.Fatal(err)
	}
	if err := mem.WriteBytes(l.buf+0x80, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	chain := append([]DriverSeg{{GPA: l.buf, Len: 16}}, segs...)
	chain = append(chain, DriverSeg{GPA: l.buf + 0x80, Len: 1, Writable: true})
	if _, err := drv.PostChain(chain); err != nil {
		t.Fatal(err)
	}
	b.Dev().MMIOWrite(NotifyOffset(), 4, 0)
	st, err := mem.ReadBytes(l.buf+0x80, 1)
	if err != nil {
		t.Fatal(err)
	}
	return st[0], b.Dev().LastErr
}

func TestBlkReadAtWriteAt(t *testing.T) {
	b, _, _, _ := newBlkFixture(t, 4*SectorSize+100) // rounds down to 4 sectors
	if n, err := b.WriteAt([]byte("abc"), 4*SectorSize-3); n != 3 || err != nil {
		t.Fatalf("WriteAt at the end = %d, %v", n, err)
	}
	for _, off := range []int64{-1, 4*SectorSize - 2, 4 * SectorSize} {
		if n, err := b.WriteAt([]byte("xyz"), off); n != 0 || err == nil {
			t.Errorf("WriteAt(off %d) = %d, %v; want 0 and an error", off, n, err)
		}
	}
	p := make([]byte, 8)
	n, err := b.ReadAt(p, 4*SectorSize-5)
	if n != 5 || err != io.EOF || string(p[:5]) != "\x00\x00abc" {
		t.Errorf("ReadAt across the end = %d, %v, %q; want 5, EOF, \"\\x00\\x00abc\"", n, err, p[:5])
	}
	if n, err := b.ReadAt(p, 4*SectorSize); n != 0 || err != io.EOF {
		t.Errorf("ReadAt at the end = %d, %v; want 0, EOF", n, err)
	}
	if n, err := b.ReadAt(p, -1); n != 0 || err == nil || err == io.EOF {
		t.Errorf("ReadAt(-1) = %d, %v; want 0 and a range error", n, err)
	}
	if n, err := b.ReadAt(p, 0); n != 8 || err != nil || !bytes.Equal(p, make([]byte, 8)) {
		t.Errorf("ReadAt of a never-written sector = %d, %v, %x", n, err, p)
	}
}

// A sector number whose byte offset wraps 2^64 is out of range: a write
// to sector 2^55 (offset 2^64) must not land in sector 0.
func TestBlkWrappedSectorIsIOErr(t *testing.T) {
	b, drv, l, mem := newBlkFixture(t, 1<<20)
	payload := bytes.Repeat([]byte{0x77}, SectorSize)
	if err := mem.WriteBytes(l.buf+0x1000, payload); err != nil {
		t.Fatal(err)
	}
	st, err := blkRequest(t, b, drv, mem, l, BlkTOut, 1<<55,
		[]DriverSeg{{GPA: l.buf + 0x1000, Len: SectorSize}})
	if err != nil || st != BlkSIOErr {
		t.Fatalf("write at sector 2^55: err %v, status %d; want IOERR", err, st)
	}
	if got := diskBytes(t, b, 0, SectorSize); !bytes.Equal(got, make([]byte, SectorSize)) || b.Writes != 0 {
		t.Fatalf("sector 0 changed (%d writes)", b.Writes)
	}
}

// A read whose end wraps 2^64 is out of range, not a slice panic.
func TestBlkReadPastEndIsIOErr(t *testing.T) {
	b, drv, l, mem := newBlkFixture(t, 1<<20)
	st, err := blkRequest(t, b, drv, mem, l, BlkTIn, 1<<55-1,
		[]DriverSeg{{GPA: l.buf + 0x1000, Len: 1024, Writable: true}})
	if err != nil || st != BlkSIOErr {
		t.Fatalf("1 KiB read at sector 2^55-1: err %v, status %d; want IOERR", err, st)
	}
}

// Four readable 1 GiB segments add up to 4 GiB: ReadCap must not wrap to
// 0. The blk write is out of range; the net frame is refused typed.
func TestChainCapsSumIn64Bits(t *testing.T) {
	b, drv, l, mem := newBlkFixture(t, 1<<20)
	huge := []DriverSeg{{GPA: memBase, Len: maxSegLen}, {GPA: memBase, Len: maxSegLen},
		{GPA: memBase, Len: maxSegLen}, {GPA: memBase, Len: maxSegLen}}
	st, err := blkRequest(t, b, drv, mem, l, BlkTOut, 0, huge)
	if err != nil || st != BlkSIOErr {
		t.Fatalf("blk write of 4 GiB: err %v, status %d; want IOERR", err, st)
	}

	n := NewNet(0x1000_0000, mem)
	n.Dev().SetupQueue(NetTXQ, 8, l.desc, l.avail, l.used)
	if _, err := NewDriverView(n.Dev().Queue(NetTXQ), mem).PostChain(huge); err != nil {
		t.Fatal(err)
	}
	n.Dev().MMIOWrite(NotifyOffset(), 4, NetTXQ)
	var ce *ChainError
	if !errors.As(n.Dev().LastErr, &ce) || ce.Kind != ChainFrameTooLong {
		t.Fatalf("net TX of 4 GiB: LastErr %v, want ChainFrameTooLong", n.Dev().LastErr)
	}
	if n.TxFrames != 0 {
		t.Errorf("TxFrames = %d, want 0", n.TxFrames)
	}
}

// A zero-length final writable segment has no byte for the status: the
// request is refused typed, and the byte before that segment, outside
// the guest's buffers, is untouched.
func TestBlkEmptyStatusSegmentRefused(t *testing.T) {
	b, drv, l, mem := newBlkFixture(t, 1<<20)
	if err := mem.WriteBytes(l.buf+0x2000-1, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], BlkTIn)
	if err := mem.WriteBytes(l.buf, hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := drv.PostChain([]DriverSeg{
		{GPA: l.buf, Len: 16},
		{GPA: l.buf + 0x1000, Len: SectorSize, Writable: true},
		{GPA: l.buf + 0x2000, Len: 0, Writable: true},
	}); err != nil {
		t.Fatal(err)
	}
	b.Dev().MMIOWrite(NotifyOffset(), 4, 0)
	var ce *ChainError
	if !errors.As(b.Dev().LastErr, &ce) || ce.Kind != ChainNoStatus {
		t.Fatalf("LastErr = %v, want ChainNoStatus", b.Dev().LastErr)
	}
	if got, _ := mem.ReadBytes(l.buf+0x2000-1, 1); got[0] != 0xEE {
		t.Fatalf("byte before the empty segment = %#x, want 0xEE", got[0])
	}
}

// TestBlkMatchesFlatModel drives seeded random requests through Notify
// and checks each against a flat []byte disk: status, used length, read
// data, and the whole disk after every request. Requests cover the first
// and last sectors, multi-sector and partial-sector lengths, data split
// over several segments (some empty), and out-of-range sectors and ends.
func TestBlkMatchesFlatModel(t *testing.T) {
	const nsec = 200 // four slabs, the last one partial
	b, drv, l, mem := newBlkFixture(t, nsec*SectorSize)
	model := make([]byte, nsec*SectorSize)
	rng := rand.New(rand.NewSource(25))
	got := make([]byte, len(model))
	for i := 0; i < 3000; i++ {
		var sector uint64
		switch rng.Intn(8) {
		case 0:
			sector = 0
		case 1:
			sector = nsec - 1 - uint64(rng.Intn(2))
		case 2: // out of range, some wrapping 2^64 as a byte offset
			sector = []uint64{nsec, nsec + 1, 1 << 55, 1<<55 - 1, 1<<64 - 1}[rng.Intn(5)]
		default:
			sector = uint64(rng.Intn(nsec))
		}
		var n int
		switch rng.Intn(4) {
		case 0:
			n = SectorSize
		case 1:
			n = SectorSize * (1 + rng.Intn(8))
		default:
			n = rng.Intn(3 * SectorSize)
		}
		write := rng.Intn(2) == 0
		// Split the data over 1-3 segments, 8 KiB apart, some empty.
		var segs []DriverSeg
		data := make([]byte, n)
		rng.Read(data)
		for rest, k := n, 0; k == 0 || rest > 0; k++ {
			m := rest
			if k < 2 && rest > 0 {
				m = rng.Intn(rest + 1)
			}
			gpa := l.buf + 0x1000 + uint64(k)*0x2000
			if write {
				if err := mem.WriteBytes(gpa, data[n-rest:n-rest+m]); err != nil {
					t.Fatal(err)
				}
			} else if err := mem.WriteBytes(gpa, bytes.Repeat([]byte{0xEE}, m)); err != nil {
				t.Fatal(err)
			}
			segs = append(segs, DriverSeg{GPA: gpa, Len: uint32(m), Writable: !write})
			rest -= m
		}
		typ := uint32(BlkTIn)
		if write {
			typ = BlkTOut
		}
		if rng.Intn(50) == 0 {
			typ = 9 // unsupported
		}
		st, err := blkRequest(t, b, drv, mem, l, typ, sector, segs)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		_, written, ok, perr := drv.PollUsed()
		if !ok || perr != nil {
			t.Fatalf("request %d: no completion (%v)", i, perr)
		}

		inRange := sector < nsec && sector*SectorSize+uint64(n) <= uint64(len(model))
		want, wantWritten := byte(BlkSOK), uint32(1)
		switch {
		case typ != BlkTIn && typ != BlkTOut:
			want = BlkSUnsup
		case !inRange:
			want = BlkSIOErr
		case write:
			copy(model[sector*SectorSize:], data)
		default:
			wantWritten += uint32(n)
			var read []byte
			for _, s := range segs {
				p, err := mem.ReadBytes(s.GPA, int(s.Len))
				if err != nil {
					t.Fatal(err)
				}
				read = append(read, p...)
			}
			if off := sector * SectorSize; !bytes.Equal(read, model[off:off+uint64(n)]) {
				t.Fatalf("request %d: read of %d bytes at sector %d differs from the model", i, n, sector)
			}
		}
		if st != want || written != wantWritten {
			t.Fatalf("request %d (type %d, sector %d, %d bytes): status %d written %d, want %d and %d",
				i, typ, sector, n, st, written, want, wantWritten)
		}
		if _, err := b.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, model) {
			t.Fatalf("request %d (type %d, sector %d, %d bytes): disk differs from the model", i, typ, sector, n)
		}
	}
}

// The thin disk's allocation contract through the pump: reading a
// never-written sector and rewriting a written one allocate nothing, and
// N first writes allocate at most one 32 KiB slab per 64 sectors.
func TestThinDiskAllocs(t *testing.T) {
	b, drv, l, mem := newBlkFixture(t, 1<<20)
	hdr := make([]byte, 16)
	segs := []DriverSeg{
		{GPA: l.buf, Len: 16},
		{GPA: l.buf + 0x1000, Len: SectorSize},
		{GPA: l.buf + 0x80, Len: 1, Writable: true},
	}
	status := make([]byte, 1)
	request := func(typ uint32, sector uint64) {
		binary.LittleEndian.PutUint32(hdr[0:], typ)
		binary.LittleEndian.PutUint64(hdr[8:], sector)
		if err := mem.WriteBytes(l.buf, hdr); err != nil {
			t.Fatal(err)
		}
		segs[1].Writable = typ == BlkTIn
		if _, err := drv.PostChain(segs); err != nil {
			t.Fatal(err)
		}
		b.Dev().MMIOWrite(NotifyOffset(), 4, 0)
		if _, _, ok, err := drv.PollUsed(); !ok || err != nil || b.Dev().LastErr != nil {
			t.Fatal("no completion", err, b.Dev().LastErr)
		}
		if err := mem.ReadInto(l.buf+0x80, status); err != nil || status[0] != BlkSOK {
			t.Fatal("status", status[0], err)
		}
	}
	request(BlkTOut, 0) // warm the scratch buffers
	request(BlkTIn, 1)
	if avg := testing.AllocsPerRun(100, func() { request(BlkTIn, 1000) }); avg != 0 {
		t.Errorf("read of a never-written sector allocates %.1f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { request(BlkTOut, 0) }); avg != 0 {
		t.Errorf("rewrite of a written sector allocates %.1f times, want 0", avg)
	}
	const n = 130
	next := uint64(1)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			request(BlkTOut, next)
			next++
		}
	})
	if max := float64((n + slabSectors - 1) / slabSectors); allocs > max {
		t.Errorf("%d first writes allocate %.0f times, want at most %.0f", n, allocs, max)
	}
	if b.disk.slots != uint32(next) {
		t.Errorf("%d slots handed out, want %d", b.disk.slots, next)
	}
}
