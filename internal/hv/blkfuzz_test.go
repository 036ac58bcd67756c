package hv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"zion/internal/isa"
	"zion/internal/sm"
	"zion/internal/virtio"
)

// span is a guest-physical byte range [gpa, gpa+n).
type span struct{ gpa, n uint64 }

func (s span) holds(o span) bool { return o.gpa >= s.gpa && o.n <= s.n && o.gpa-s.gpa <= s.n-o.n }

// recordingMem is a device's GuestMem that logs every write.
type recordingMem struct {
	*GuestMem
	writes []span
}

func (r *recordingMem) WriteBytes(gpa uint64, b []byte) error {
	r.writes = append(r.writes, span{gpa, uint64(len(b))})
	return r.GuestMem.WriteBytes(gpa, b)
}

// sparseMem is a plain model of a CVM's shared window: pages appear on
// first write, and a page never written reads as zeros. get and put
// cannot fail; the MemIO methods wrap them for the ring pump.
type sparseMem map[uint64]*[isa.PageSize]byte

func (m sparseMem) get(gpa uint64, out []byte) {
	for i := range out {
		out[i] = 0
		if p := m[(gpa+uint64(i))/isa.PageSize]; p != nil {
			out[i] = p[(gpa+uint64(i))%isa.PageSize]
		}
	}
}

func (m sparseMem) put(gpa uint64, b []byte) {
	for i, v := range b {
		a := gpa + uint64(i)
		p := m[a/isa.PageSize]
		if p == nil {
			p = new([isa.PageSize]byte)
			m[a/isa.PageSize] = p
		}
		p[a%isa.PageSize] = v
	}
}

func (m sparseMem) Window() (uint64, uint64, bool) { return sm.SharedBase, sharedWindowSize, true }

func (m sparseMem) ReadBytes(gpa uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	m.get(gpa, out)
	return out, nil
}

func (m sparseMem) ReadInto(gpa uint64, out []byte) error { m.get(gpa, out); return nil }

func (m sparseMem) WriteBytes(gpa uint64, b []byte) error { m.put(gpa, b); return nil }

// flatBlk is the reference blk device of FuzzBlkNotify: the same ring
// pump, requests executed byte by byte against a flat disk image. It
// records every writable segment it was handed.
type flatBlk struct {
	q        virtio.Queue
	disk     []byte
	writable []span
}

func (f *flatBlk) notify(m sparseMem) error {
	for {
		chains, err := f.q.PopBatch(m, 0)
		if err != nil || len(chains) == 0 {
			return err
		}
		var used []virtio.UsedElem
		for i := range chains {
			w, err := f.process(m, &chains[i])
			if err != nil {
				return err
			}
			used = append(used, virtio.UsedElem{Head: chains[i].Head, Written: w})
		}
		if err := f.q.PushBatch(m, used); err != nil {
			return err
		}
	}
}

func (f *flatBlk) process(m sparseMem, ch *virtio.Chain) (uint32, error) {
	var rlen, wlen uint64
	for _, s := range ch.ReadGPA {
		rlen += uint64(s.Len)
	}
	for _, s := range ch.WriteGPA {
		wlen += uint64(s.Len)
		f.writable = append(f.writable, span{s.GPA, uint64(s.Len)})
	}
	// readable returns n bytes of the readable stream from byte off on.
	readable := func(off, n uint64) []byte {
		var out []byte
		var b [1]byte
		for _, s := range ch.ReadGPA {
			for i := uint64(0); i < uint64(s.Len) && uint64(len(out)) < n; i++ {
				if off > 0 {
					off--
					continue
				}
				m.get(s.GPA+i, b[:])
				out = append(out, b[0])
			}
		}
		return out
	}
	if rlen < 16 {
		return 0, &virtio.ChainError{Kind: virtio.ChainNoHeader, Head: ch.Head, Index: ch.Head}
	}
	hdr := readable(0, 16)
	if len(ch.WriteGPA) == 0 || ch.WriteGPA[len(ch.WriteGPA)-1].Len == 0 {
		return 0, &virtio.ChainError{Kind: virtio.ChainNoStatus, Head: ch.Head, Index: ch.Head}
	}
	typ := binary.LittleEndian.Uint32(hdr[0:4])
	sector := binary.LittleEndian.Uint64(hdr[8:16])
	onDisk := func(n uint64) bool {
		return sector < uint64(len(f.disk))/virtio.SectorSize && sector*virtio.SectorSize+n <= uint64(len(f.disk))
	}
	status, written := byte(virtio.BlkSOK), uint32(1)
	switch {
	case typ == virtio.BlkTIn && onDisk(wlen-1):
		data := f.disk[sector*virtio.SectorSize:][:wlen-1]
		for i, s := range ch.WriteGPA {
			room := uint64(s.Len)
			if i == len(ch.WriteGPA)-1 {
				room--
			}
			for j := uint64(0); j < room; j++ {
				m.put(s.GPA+j, data[:1])
				data = data[1:]
			}
		}
		written += uint32(wlen - 1)
	case typ == virtio.BlkTOut && onDisk(rlen-16):
		copy(f.disk[sector*virtio.SectorSize:], readable(16, rlen-16))
	case typ == virtio.BlkTIn || typ == virtio.BlkTOut:
		status = virtio.BlkSIOErr
	default:
		status = virtio.BlkSUnsup
	}
	last := ch.WriteGPA[len(ch.WriteGPA)-1]
	m.put(last.GPA+uint64(last.Len)-1, []byte{status})
	return written, nil
}

// FuzzBlkNotify writes a hostile guest's descriptor table, avail ring and
// request buffers (headers included) into a CVM's shared window and
// drives them through Blk.Notify. It must never panic and may fail only
// with a typed error. Every outcome must match flatBlk on a model of the
// window: the same error, the same disk, the same bytes in every page
// either device wrote. Every byte the device writes must lie in a
// writable segment of a chain it processed, or in the used ring.
func FuzzBlkNotify(f *testing.F) {
	const (
		buf   = sm.SharedBase + 0x3000
		next  = 1
		write = 2
		nsec  = 16
	)
	desc := func(ds ...[4]uint64) []byte { // {addr, len, flags, next}
		var out []byte
		for _, d := range ds {
			out = binary.LittleEndian.AppendUint64(out, d[0])
			out = binary.LittleEndian.AppendUint32(out, uint32(d[1]))
			out = binary.LittleEndian.AppendUint16(out, uint16(d[2]))
			out = binary.LittleEndian.AppendUint16(out, uint16(d[3]))
		}
		return out
	}
	req := func(typ uint32, sector uint64) []byte {
		h := binary.LittleEndian.AppendUint32(nil, typ)
		h = append(h, 0, 0, 0, 0)
		return binary.LittleEndian.AppendUint64(h, sector)
	}
	oneHead := []byte{0, 0, 1, 0, 0, 0} // flags 0, idx 1, ring[0] = head 0
	f.Add(uint8(8), desc(               // a well-formed write of sector 3
		[4]uint64{buf, 16, next, 1},
		[4]uint64{buf + 0x100, 512, next, 2},
		[4]uint64{buf + 0x80, 1, write, 0}), oneHead, req(virtio.BlkTOut, 3))
	f.Add(uint8(8), desc( // a read across the last written sector, one empty segment
		[4]uint64{buf, 16, next, 1},
		[4]uint64{buf + 0x100, 700, next | write, 2},
		[4]uint64{buf + 0x400, 0, next | write, 3},
		[4]uint64{buf + 0x500, 325, next | write, 4},
		[4]uint64{buf + 0x80, 1, write, 0}), oneHead, req(virtio.BlkTIn, nsec/2-1))
	f.Add(uint8(8), desc( // a write to sector 2^55, byte offset 2^64
		[4]uint64{buf, 16, next, 1},
		[4]uint64{buf + 0x100, 512, next, 2},
		[4]uint64{buf + 0x80, 1, write, 0}), oneHead, req(virtio.BlkTOut, 1<<55))
	f.Add(uint8(8), desc( // a 1 KiB read at sector 2^55-1
		[4]uint64{buf, 16, next, 1},
		[4]uint64{buf + 0x100, 1024, next | write, 2},
		[4]uint64{buf + 0x80, 1, write, 0}), oneHead, req(virtio.BlkTIn, 1<<55-1))
	f.Add(uint8(8), desc( // four readable 1 GiB segments: 4 GiB
		[4]uint64{sm.SharedBase, 1 << 30, next, 1},
		[4]uint64{sm.SharedBase, 1 << 30, next, 2},
		[4]uint64{sm.SharedBase, 1 << 30, next, 3},
		[4]uint64{sm.SharedBase, 1 << 30, next, 4},
		[4]uint64{buf + 0x80, 1, write, 0}), oneHead, req(virtio.BlkTOut, 0))
	f.Add(uint8(8), desc( // a zero-length final writable segment
		[4]uint64{buf, 16, next, 1},
		[4]uint64{buf + 0x100, 512, next | write, 2},
		[4]uint64{buf + 0x300, 0, write, 0}), oneHead, req(virtio.BlkTIn, 0))

	f.Fuzz(func(t *testing.T, size uint8, descBytes, availBytes, bufBytes []byte) {
		_, monitor, k, h := newStack(t, sm.Config{})
		vm := windowCVM(t, k, h)
		g := k.NewGuestMem(vm, h)
		ref := &flatBlk{
			q: virtio.Queue{
				Size:     uint16(size%16) + 1,
				DescGPA:  sm.SharedBase,
				AvailGPA: sm.SharedBase + 0x1000,
				UsedGPA:  sm.SharedBase + 0x2000,
				Ready:    true,
			},
			disk: make([]byte, nsec*virtio.SectorSize),
		}
		model := sparseMem{}
		if n := int(ref.q.Size) * 16; len(descBytes) > n {
			descBytes = descBytes[:n]
		}
		if n := 4 + int(ref.q.Size)*2; len(availBytes) > n {
			availBytes = availBytes[:n]
		}
		if len(bufBytes) > 0x2000 {
			bufBytes = bufBytes[:0x2000]
		}
		for _, in := range []struct {
			gpa uint64
			b   []byte
		}{{ref.q.DescGPA, descBytes}, {ref.q.AvailGPA, availBytes}, {buf, bufBytes}} {
			if err := g.WriteBytes(in.gpa, in.b); err != nil {
				t.Fatal(err)
			}
			model.put(in.gpa, in.b)
		}

		rec := &recordingMem{GuestMem: g}
		blk := virtio.NewBlk(0x1000_0000, nsec*virtio.SectorSize, rec)
		q := ref.q
		blk.Dev().SetupQueue(0, q.Size, q.DescGPA, q.AvailGPA, q.UsedGPA)
		// Half the disk written before the guest's requests, half never.
		for i := range ref.disk[:len(ref.disk)/2] {
			ref.disk[i] = byte(i*7 + 1)
		}
		if _, err := blk.WriteAt(ref.disk[:len(ref.disk)/2], 0); err != nil {
			t.Fatal(err)
		}

		err := blk.Notify(0)
		refErr := ref.notify(model)
		var ce *virtio.ChainError
		var oe *virtio.OutOfWindowError
		if err != nil && !errors.As(err, &ce) && !errors.As(err, &oe) {
			t.Fatalf("Notify: untyped error %v", err)
		}
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("Notify: error %v, flat model %v", err, refErr)
		}

		disk := make([]byte, len(ref.disk))
		if _, err := blk.ReadAt(disk, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(disk, ref.disk) {
			t.Fatalf("disk differs from the flat model")
		}

		allowed := append(ref.writable, span{q.UsedGPA, 4 + 8*uint64(q.Size)})
		pages := map[uint64]bool{}
		for p := range model {
			pages[p] = true
		}
		for _, w := range rec.writes {
			ok := false
			for _, a := range allowed {
				ok = ok || a.holds(w)
			}
			if !ok {
				t.Fatalf("device wrote [%#x, +%d) outside every writable segment and the used ring", w.gpa, w.n)
			}
			for p := w.gpa / isa.PageSize; p <= (w.gpa+w.n-1)/isa.PageSize; p++ {
				pages[p] = true
			}
		}
		var got, want [isa.PageSize]byte
		for p := range pages {
			if err := g.ReadInto(p*isa.PageSize, got[:]); err != nil {
				t.Fatal(err)
			}
			model.get(p*isa.PageSize, want[:])
			if got != want {
				t.Fatalf("shared page %#x differs from the flat model", p*isa.PageSize)
			}
		}
		if found := monitor.Audit(); len(found) != 0 {
			t.Fatalf("audit: %v", found)
		}
	})
}
