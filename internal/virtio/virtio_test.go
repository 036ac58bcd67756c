package virtio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// ringLayout carves a queue's rings and buffers out of a MemIO window.
type ringLayout struct {
	desc, avail, used uint64
	buf               uint64
}

func layoutAt(base uint64) ringLayout {
	return ringLayout{
		desc:  base,
		avail: base + 0x1000,
		used:  base + 0x2000,
		buf:   base + 0x4000,
	}
}

const memBase = 0x4000_0000

func newBlkFixture(t *testing.T, diskSize uint64) (*Blk, *DriverView, ringLayout, MemIO) {
	t.Helper()
	mem := NewBytesMemIO(memBase, 1<<20)
	b := NewBlk(0x1000_0000, diskSize, mem)
	l := layoutAt(memBase)
	b.Dev().SetupQueue(0, 64, l.desc, l.avail, l.used)
	drv := NewDriverView(b.Dev().Queue(0), mem)
	return b, drv, l, mem
}

// postBlkReq posts a blk request: header at l.buf, data at l.buf+0x100,
// status at l.buf+0x80.
func postBlkReq(t *testing.T, drv *DriverView, mem MemIO, l ringLayout,
	typ uint32, sector uint64, data []byte, readLen int) {
	t.Helper()
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], typ)
	binary.LittleEndian.PutUint64(hdr[8:], sector)
	if err := mem.WriteBytes(l.buf, hdr); err != nil {
		t.Fatal(err)
	}
	segs := []DriverSeg{{GPA: l.buf, Len: 16}}
	if typ == BlkTOut {
		if err := mem.WriteBytes(l.buf+0x1000, data); err != nil {
			t.Fatal(err)
		}
		segs = append(segs, DriverSeg{GPA: l.buf + 0x1000, Len: uint32(len(data))})
	} else {
		segs = append(segs, DriverSeg{GPA: l.buf + 0x1000, Len: uint32(readLen), Writable: true})
	}
	segs = append(segs, DriverSeg{GPA: l.buf + 0x80, Len: 1, Writable: true})
	if _, err := drv.PostChain(segs); err != nil {
		t.Fatal(err)
	}
}

// diskBytes reads n bytes of b's disk at off.
func diskBytes(t *testing.T, b *Blk, off int64, n int) []byte {
	t.Helper()
	p := make([]byte, n)
	if _, err := b.ReadAt(p, off); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBlkWriteThenRead(t *testing.T) {
	b, drv, l, mem := newBlkFixture(t, 1<<20)
	payload := bytes.Repeat([]byte("zion-blk"), 64) // 512 bytes
	postBlkReq(t, drv, mem, l, BlkTOut, 3, payload, 0)
	b.Dev().MMIOWrite(NotifyOffset(), 4, 0)
	if b.Dev().LastErr != nil {
		t.Fatal(b.Dev().LastErr)
	}
	// Status byte OK.
	st, _ := mem.ReadBytes(l.buf+0x80, 1)
	if st[0] != BlkSOK {
		t.Fatalf("write status = %d", st[0])
	}
	if !bytes.Equal(diskBytes(t, b, 3*SectorSize, 512), payload) {
		t.Error("disk content mismatch")
	}

	// Read it back.
	postBlkReq(t, drv, mem, l, BlkTIn, 3, nil, 512+1)
	b.Dev().MMIOWrite(NotifyOffset(), 4, 0)
	got, _ := mem.ReadBytes(l.buf+0x1000, 512)
	if !bytes.Equal(got, payload) {
		t.Error("read-back mismatch")
	}
	head, written, ok, err := drv.PollUsed()
	if err != nil || !ok {
		t.Fatalf("no used entry: %v", err)
	}
	_ = head
	if written == 0 {
		t.Error("read reported zero written bytes")
	}
	// Second completion (the read) pending too.
	if _, _, ok, _ := drv.PollUsed(); !ok {
		t.Error("second used entry missing")
	}
	if b.Reads != 1 || b.Writes != 1 {
		t.Errorf("stats: %d reads %d writes", b.Reads, b.Writes)
	}
}

func TestBlkOutOfRangeIO(t *testing.T) {
	b, drv, l, mem := newBlkFixture(t, 4096) // 8 sectors
	postBlkReq(t, drv, mem, l, BlkTOut, 100, []byte("x"), 0)
	b.Dev().MMIOWrite(NotifyOffset(), 4, 0)
	st, _ := mem.ReadBytes(l.buf+0x80, 1)
	if st[0] != BlkSIOErr {
		t.Errorf("status = %d, want IOERR", st[0])
	}
}

func TestBlkUnsupportedRequest(t *testing.T) {
	b, drv, l, mem := newBlkFixture(t, 4096)
	postBlkReq(t, drv, mem, l, 7, 0, nil, 16)
	b.Dev().MMIOWrite(NotifyOffset(), 4, 0)
	st, _ := mem.ReadBytes(l.buf+0x80, 1)
	if st[0] != BlkSUnsup {
		t.Errorf("status = %d, want UNSUP", st[0])
	}
}

func TestBlkConfigCapacity(t *testing.T) {
	b, _, _, _ := newBlkFixture(t, 1<<20)
	sectors := b.Dev().MMIORead(0x100, 8)
	if sectors != (1<<20)/SectorSize {
		t.Errorf("capacity = %d sectors", sectors)
	}
}

func TestMMIOIdentityRegisters(t *testing.T) {
	b, _, _, _ := newBlkFixture(t, 4096)
	d := b.Dev()
	if d.MMIORead(0x000, 4) != 0x74726976 {
		t.Error("bad magic")
	}
	if d.MMIORead(0x004, 4) != 2 {
		t.Error("bad version")
	}
	if d.MMIORead(0x008, 4) != 2 {
		t.Error("bad device id")
	}
	if d.MMIORead(0x034, 4) == 0 {
		t.Error("QueueNumMax zero")
	}
	base, size := d.GPARange()
	if base != 0x1000_0000 || size == 0 {
		t.Error("bad GPA range")
	}
}

func TestInterruptStatusAndAck(t *testing.T) {
	b, drv, l, mem := newBlkFixture(t, 1<<20)
	postBlkReq(t, drv, mem, l, BlkTOut, 0, []byte("y"), 0)
	b.Dev().MMIOWrite(NotifyOffset(), 4, 0)
	if b.Dev().MMIORead(0x060, 4)&1 == 0 {
		t.Error("interrupt status not raised after completion")
	}
	b.Dev().MMIOWrite(0x064, 4, 1)
	if b.Dev().MMIORead(0x060, 4)&1 != 0 {
		t.Error("interrupt ack did not clear status")
	}
}

func TestNetLoopbackPair(t *testing.T) {
	memA := NewBytesMemIO(memBase, 1<<20)
	memB := NewBytesMemIO(memBase, 1<<20)
	a := NewNet(0x1000_0000, memA)
	b := NewNet(0x1000_0000, memB)
	Pair(a, b)

	la, lb := layoutAt(memBase), layoutAt(memBase)
	a.Dev().SetupQueue(NetRXQ, 16, la.desc, la.avail, la.used)
	a.Dev().SetupQueue(NetTXQ, 16, la.desc+0x8000, la.avail+0x8000, la.used+0x8000)
	b.Dev().SetupQueue(NetRXQ, 16, lb.desc, lb.avail, lb.used)
	b.Dev().SetupQueue(NetTXQ, 16, lb.desc+0x8000, lb.avail+0x8000, lb.used+0x8000)

	// B posts an RX buffer.
	rxDrv := NewDriverView(b.Dev().Queue(NetRXQ), memB)
	if _, err := rxDrv.PostChain([]DriverSeg{{GPA: lb.buf, Len: 256, Writable: true}}); err != nil {
		t.Fatal(err)
	}
	b.Dev().MMIOWrite(NotifyOffset(), 4, NetRXQ)

	// A transmits a frame.
	txDrv := NewDriverView(a.Dev().Queue(NetTXQ), memA)
	frame := make([]byte, NetHdrLen+5)
	copy(frame[NetHdrLen:], "hello")
	if err := memA.WriteBytes(la.buf+0x100, frame); err != nil {
		t.Fatal(err)
	}
	if _, err := txDrv.PostChain([]DriverSeg{{GPA: la.buf + 0x100, Len: uint32(len(frame))}}); err != nil {
		t.Fatal(err)
	}
	a.Dev().MMIOWrite(NotifyOffset(), 4, NetTXQ)
	if a.Dev().LastErr != nil || b.Dev().LastErr != nil {
		t.Fatal(a.Dev().LastErr, b.Dev().LastErr)
	}

	// B's RX buffer now holds header + payload.
	head, written, ok, err := rxDrv.PollUsed()
	if err != nil || !ok {
		t.Fatalf("rx not completed: %v", err)
	}
	_ = head
	if written != NetHdrLen+5 {
		t.Errorf("written = %d", written)
	}
	got, _ := memB.ReadBytes(lb.buf+NetHdrLen, 5)
	if string(got) != "hello" {
		t.Errorf("payload = %q", got)
	}
	if a.TxFrames != 1 || b.RxFrames != 1 {
		t.Errorf("frames: tx=%d rx=%d", a.TxFrames, b.RxFrames)
	}
}

func TestNetPendingUntilBuffersPosted(t *testing.T) {
	mem := NewBytesMemIO(memBase, 1<<20)
	n := NewNet(0x1000_0000, mem)
	l := layoutAt(memBase)
	n.Dev().SetupQueue(NetRXQ, 16, l.desc, l.avail, l.used)
	n.Dev().SetupQueue(NetTXQ, 16, l.desc+0x8000, l.avail+0x8000, l.used+0x8000)

	if err := n.Inject([]byte("early")); err != nil {
		t.Fatal(err)
	}
	if n.RxFrames != 0 {
		t.Fatal("frame delivered without buffers")
	}
	rxDrv := NewDriverView(n.Dev().Queue(NetRXQ), mem)
	if _, err := rxDrv.PostChain([]DriverSeg{{GPA: l.buf, Len: 128, Writable: true}}); err != nil {
		t.Fatal(err)
	}
	n.Dev().MMIOWrite(NotifyOffset(), 4, NetRXQ)
	if n.RxFrames != 1 {
		t.Error("pending frame not flushed after buffer post")
	}
}

func TestNetTap(t *testing.T) {
	mem := NewBytesMemIO(memBase, 1<<20)
	n := NewNet(0x1000_0000, mem)
	l := layoutAt(memBase)
	n.Dev().SetupQueue(NetRXQ, 16, l.desc, l.avail, l.used)
	n.Dev().SetupQueue(NetTXQ, 16, l.desc+0x8000, l.avail+0x8000, l.used+0x8000)
	var got []byte
	n.Tap = func(f []byte) { got = append([]byte(nil), f...) }

	txDrv := NewDriverView(n.Dev().Queue(NetTXQ), mem)
	frame := make([]byte, NetHdrLen+3)
	copy(frame[NetHdrLen:], "abc")
	_ = mem.WriteBytes(l.buf, frame)
	if _, err := txDrv.PostChain([]DriverSeg{{GPA: l.buf, Len: uint32(len(frame))}}); err != nil {
		t.Fatal(err)
	}
	n.Dev().MMIOWrite(NotifyOffset(), 4, NetTXQ)
	if string(got) != "abc" {
		t.Errorf("tap got %q", got)
	}
}

func TestChainValidation(t *testing.T) {
	mem := NewBytesMemIO(memBase, 1<<20)
	b := NewBlk(0x1000_0000, 4096, mem)
	l := layoutAt(memBase)
	b.Dev().SetupQueue(0, 4, l.desc, l.avail, l.used)
	q := b.Dev().Queue(0)

	// Hand-craft a looping descriptor chain: 0 -> 1 -> 0.
	writeDesc := func(i uint16, addr uint64, ln uint32, flags, next uint16) {
		var d [16]byte
		binary.LittleEndian.PutUint64(d[0:], addr)
		binary.LittleEndian.PutUint32(d[8:], ln)
		binary.LittleEndian.PutUint16(d[12:], flags)
		binary.LittleEndian.PutUint16(d[14:], next)
		_ = mem.WriteBytes(l.desc+uint64(i)*16, d[:])
	}
	writeDesc(0, l.buf, 16, descFNext, 1)
	writeDesc(1, l.buf, 16, descFNext, 0)
	forgeAvail(t, mem, l.avail, 0, 0, 1) // ring[0] = head 0, idx = 1
	_, err := q.PopBatch(mem, 1)
	if err == nil {
		t.Error("descriptor loop not detected")
	}
}

func TestOutOfWindowDMA(t *testing.T) {
	mem := NewBytesMemIO(memBase, 0x1000)
	_, err := mem.ReadBytes(memBase+0x2000, 8)
	var oow *OutOfWindowError
	if !errors.As(err, &oow) {
		t.Fatalf("err = %v", err)
	}
	if oow.Error() == "" {
		t.Error("empty error string")
	}
}

// Scatter-gather: a blk read whose data spans three writable segments.
func TestBlkScatterGatherRead(t *testing.T) {
	b, drv, l, mem := newBlkFixture(t, 1<<20)
	// Seed the disk.
	payload := bytes.Repeat([]byte{0xAB}, 96)
	if _, err := b.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}

	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], BlkTIn)
	if err := mem.WriteBytes(l.buf, hdr); err != nil {
		t.Fatal(err)
	}
	segs := []DriverSeg{
		{GPA: l.buf, Len: 16},
		{GPA: l.buf + 0x1000, Len: 32, Writable: true},
		{GPA: l.buf + 0x2000, Len: 32, Writable: true},
		{GPA: l.buf + 0x3000, Len: 32, Writable: true},
		{GPA: l.buf + 0x80, Len: 1, Writable: true},
	}
	if _, err := drv.PostChain(segs); err != nil {
		t.Fatal(err)
	}
	b.Dev().MMIOWrite(NotifyOffset(), 4, 0)
	if b.Dev().LastErr != nil {
		t.Fatal(b.Dev().LastErr)
	}
	for i, gpa := range []uint64{l.buf + 0x1000, l.buf + 0x2000, l.buf + 0x3000} {
		got, _ := mem.ReadBytes(gpa, 32)
		if !bytes.Equal(got, payload[i*32:(i+1)*32]) {
			t.Errorf("segment %d mismatch", i)
		}
	}
	st, _ := mem.ReadBytes(l.buf+0x80, 1)
	if st[0] != BlkSOK {
		t.Errorf("status = %d", st[0])
	}
}

// Used/avail 16-bit indices keep working far past the queue size
// (wraparound of both the ring slot and the free-running index).
func TestRingIndexWraparound(t *testing.T) {
	b, drv, l, mem := newBlkFixture(t, 1<<20)
	for i := 0; i < 300; i++ { // 300 > several queue wraps
		postBlkReq(t, drv, mem, l, BlkTOut, uint64(i%64), []byte{byte(i)}, 0)
		b.Dev().MMIOWrite(NotifyOffset(), 4, 0)
		if b.Dev().LastErr != nil {
			t.Fatalf("iteration %d: %v", i, b.Dev().LastErr)
		}
		if _, _, ok, err := drv.PollUsed(); !ok || err != nil {
			t.Fatalf("iteration %d: no completion (%v)", i, err)
		}
	}
	if b.Writes != 300 {
		t.Errorf("writes = %d", b.Writes)
	}
}

// A readable segment after a writable one violates the spec and is
// rejected rather than processed.
func TestChainOrderViolation(t *testing.T) {
	mem := NewBytesMemIO(memBase, 1<<20)
	b := NewBlk(0x1000_0000, 4096, mem)
	l := layoutAt(memBase)
	b.Dev().SetupQueue(0, 8, l.desc, l.avail, l.used)
	drv := NewDriverView(b.Dev().Queue(0), mem)
	segs := []DriverSeg{
		{GPA: l.buf, Len: 16},
		{GPA: l.buf + 0x100, Len: 16, Writable: true},
		{GPA: l.buf + 0x200, Len: 16}, // readable after writable: invalid
	}
	if _, err := drv.PostChain(segs); err != nil {
		t.Fatal(err)
	}
	b.Dev().MMIOWrite(NotifyOffset(), 4, 0)
	if b.Dev().LastErr == nil {
		t.Error("out-of-order chain accepted")
	}
	if b.Dev().MMIORead(0x070, 4)&0x40 == 0 {
		t.Error("DEVICE_NEEDS_RESET not raised")
	}
}

// Notify on a queue that is not ready is a no-op rather than a crash.
func TestNotifyUnreadyQueue(t *testing.T) {
	mem := NewBytesMemIO(memBase, 1<<20)
	b := NewBlk(0x1000_0000, 4096, mem)
	b.Dev().MMIOWrite(NotifyOffset(), 4, 0)
	if b.ProcessedChains != 0 {
		t.Error("unready queue processed chains")
	}
}

// newNetRXFixture returns a single-pair net device with both queues set
// up and a driver view of its RX queue.
func newNetRXFixture(t *testing.T) (*Net, *DriverView, ringLayout, MemIO) {
	t.Helper()
	mem := NewBytesMemIO(memBase, 1<<20)
	n := NewNet(0x1000_0000, mem)
	l := layoutAt(memBase)
	n.Dev().SetupQueue(NetRXQ, 16, l.desc, l.avail, l.used)
	n.Dev().SetupQueue(NetTXQ, 16, l.desc+0x8000, l.avail+0x8000, l.used+0x8000)
	return n, NewDriverView(n.Dev().Queue(NetRXQ), mem), l, mem
}

// Frames queued before any RX buffer is posted, with buffers of mixed
// sizes, arrive in order, byte for byte behind a zero header; a buffer too
// small for its frame drops that frame. Delivery reuses one scratch frame
// and recycled backlog buffers, so stale bytes must never leak.
func TestNetRXBacklogDelivery(t *testing.T) {
	n, drv, l, mem := newNetRXFixture(t)
	payloads := [][]byte{
		bytes.Repeat([]byte{0xA1}, 40),
		bytes.Repeat([]byte{0xB2}, 7),
		bytes.Repeat([]byte{0xC3}, 100), // its buffer is too small: dropped
		bytes.Repeat([]byte{0xD4}, 3),
	}
	for round := 0; round < 3; round++ {
		for _, p := range payloads {
			if err := n.Inject(p); err != nil {
				t.Fatal(err)
			}
		}
		sizes := []uint32{128, 128, 64, 128}
		for i, sz := range sizes {
			gpa := l.buf + uint64(i)*0x100
			if err := mem.WriteBytes(gpa, bytes.Repeat([]byte{0xEE}, int(sz))); err != nil {
				t.Fatal(err)
			}
			if _, err := drv.PostChain([]DriverSeg{{GPA: gpa, Len: sz, Writable: true}}); err != nil {
				t.Fatal(err)
			}
		}
		n.Dev().MMIOWrite(NotifyOffset(), 4, NetRXQ)
		if n.Dev().LastErr != nil {
			t.Fatal(n.Dev().LastErr)
		}
		for i, p := range payloads {
			_, written, ok, err := drv.PollUsed()
			if err != nil || !ok {
				t.Fatalf("round %d frame %d: no completion (%v)", round, i, err)
			}
			if i == 2 {
				if written != 0 {
					t.Errorf("round %d: dropped frame wrote %d bytes", round, written)
				}
				continue
			}
			want := append(make([]byte, NetHdrLen), p...)
			if written != uint32(len(want)) {
				t.Fatalf("round %d frame %d: written %d, want %d", round, i, written, len(want))
			}
			got, _ := mem.ReadBytes(l.buf+uint64(i)*0x100, len(want))
			if !bytes.Equal(got, want) {
				t.Errorf("round %d frame %d: got % x, want % x", round, i, got, want)
			}
		}
	}
	if n.RxFrames != 9 || n.DroppedRx != 3 || n.RxBytes != 3*(40+7+3) {
		t.Errorf("RxFrames=%d DroppedRx=%d RxBytes=%d, want 9, 3, %d",
			n.RxFrames, n.DroppedRx, n.RxBytes, 3*(40+7+3))
	}
}

// TestNetRXZeroAllocs pins the RX data path: once warm, posting a buffer,
// injecting a frame into it and polling the completion allocate nothing.
func TestNetRXZeroAllocs(t *testing.T) {
	n, drv, l, _ := newNetRXFixture(t)
	payload := bytes.Repeat([]byte{0x5A}, 512)
	seg := []DriverSeg{{GPA: l.buf, Len: 1024, Writable: true}}
	once := func() {
		if _, err := drv.PostChain(seg); err != nil {
			t.Fatal(err)
		}
		if err := n.Inject(payload); err != nil {
			t.Fatal(err)
		}
		if _, written, ok, err := drv.PollUsed(); !ok || err != nil || written != NetHdrLen+512 {
			t.Fatal("no completion", written, err)
		}
	}
	once() // warm the backlog and scratch frame
	if avg := testing.AllocsPerRun(100, once); avg != 0 {
		t.Errorf("virtio-net RX allocates %.1f times per frame, want 0", avg)
	}
}
