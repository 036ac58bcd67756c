package virtio

// slabSectors is how many written sectors one slab holds (32 KiB).
const slabSectors = 64

// zeroSector is what every never-written sector reads as. Reads scatter
// from it and never write it.
var zeroSector [SectorSize]byte

// thinDisk is a thin-provisioned disk image: a sector costs memory only
// once it is written. index holds one slot number per sector (0: never
// written, else slot+1) and no pointers, so the collector skips it.
// Written sectors live in 32 KiB slabs, slots handed out in first-write
// order. Offsets passed to readAt, writeAt and bytes must lie on the
// disk; callers check the range.
type thinDisk struct {
	index []uint32
	slabs []*[slabSectors * SectorSize]byte
	slots uint32 // slots handed out
}

func newThinDisk(sectors uint64) thinDisk {
	return thinDisk{
		index: make([]uint32, sectors),
		slabs: make([]*[slabSectors * SectorSize]byte, 0, (sectors+slabSectors-1)/slabSectors),
	}
}

// sectors is the disk's capacity in sectors.
func (d *thinDisk) sectors() uint64 { return uint64(len(d.index)) }

// sector returns sector s's bytes for reading: its slot, or the zero
// sector if it was never written.
func (d *thinDisk) sector(s uint64) []byte {
	slot := d.index[s]
	if slot == 0 {
		return zeroSector[:]
	}
	slot--
	off := slot % slabSectors * SectorSize
	return d.slabs[slot/slabSectors][off : off+SectorSize]
}

// writable returns sector s's bytes for writing, giving it the next
// slot on its first write.
func (d *thinDisk) writable(s uint64) []byte {
	if d.index[s] == 0 {
		if d.slots%slabSectors == 0 {
			d.slabs = append(d.slabs, new([slabSectors * SectorSize]byte))
		}
		d.slots++
		d.index[s] = d.slots
	}
	return d.sector(s)
}

// readAt copies the len(p) bytes at byte offset off into p.
func (d *thinDisk) readAt(p []byte, off uint64) {
	for len(p) > 0 {
		n := copy(p, d.sector(off / SectorSize)[off%SectorSize:])
		p, off = p[n:], off+uint64(n)
	}
}

// writeAt copies p to byte offset off.
func (d *thinDisk) writeAt(p []byte, off uint64) {
	for len(p) > 0 {
		n := copy(d.writable(off / SectorSize)[off%SectorSize:], p)
		p, off = p[n:], off+uint64(n)
	}
}

// bytes returns the n bytes at off. When one sector holds them it
// returns that sector's bytes (or the zero sector's) without copying;
// otherwise it copies them into scratch, which must hold n bytes.
func (d *thinDisk) bytes(off, n uint64, scratch []byte) []byte {
	if o := off % SectorSize; o+n <= SectorSize {
		return d.sector(off / SectorSize)[o : o+n]
	}
	d.readAt(scratch[:n], off)
	return scratch[:n]
}
