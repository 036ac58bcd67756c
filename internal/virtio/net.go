package virtio

import "fmt"

// NetHdrLen is the virtio-net header prepended to every frame.
const NetHdrLen = 12

// netMaxFrame bounds a TX chain's length: the header plus a 64 KiB
// payload, the largest frame a virtio-net device without offloads
// carries. A longer chain is refused before any buffer is sized for it.
const netMaxFrame = NetHdrLen + 64<<10

// Net is a virtio network device. Frames written to a TX queue are
// delivered to the peer (another Net, or a host-side tap function);
// frames arriving from the peer land in RX buffers the driver posted.
// With pairs > 1 the device exposes multiple RX/TX queue pairs (queue
// 2p = RX, 2p+1 = TX); each pair has its own pending backlog, and
// injected traffic steers by pair.
type Net struct {
	dev   *MMIODev
	pairs int

	// peer receives frames this device transmits.
	peer interface {
		deliverTo(pair int, frame []byte) error
	}

	// rx holds each pair's RX backlog: frames awaiting buffers, and the
	// buffers and scratch frame delivery reuses.
	rx []rxBacklog

	// frame is the reusable TX gather buffer; the payload slice handed
	// to Tap/peer aliases it and is valid only for the duration of the
	// call (receivers copy, as a real NIC consumer would).
	frame []byte
	used  []UsedElem

	// Tap, when set, receives every transmitted frame instead of a peer
	// (host-side load generators use this).
	Tap func(frame []byte)

	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64
	DroppedRx          uint64
}

// Queue indices for pair 0 (the classic two-queue layout).
const (
	NetRXQ = 0
	NetTXQ = 1
)

// NewNet creates a single-pair network device at base with the given
// guest-memory view.
func NewNet(base uint64, mem MemIO) *Net {
	return NewNetMQ(base, mem, 1)
}

// NewNetMQ creates a network device with the given number of RX/TX
// queue pairs.
func NewNetMQ(base uint64, mem MemIO, pairs int) *Net {
	if pairs < 1 {
		pairs = 1
	}
	n := &Net{pairs: pairs, rx: make([]rxBacklog, pairs)}
	n.dev = NewMMIODev(base, n, mem)
	return n
}

// Dev returns the MMIO transport.
func (n *Net) Dev() *MMIODev { return n.dev }

// Pair cross-connects two devices (VM-to-VM loopback link).
func Pair(a, b *Net) {
	a.peer = b
	b.peer = a
}

// DeviceID implements Backend (1 = network device).
func (n *Net) DeviceID() uint32 { return 1 }

// NumQueues implements Backend.
func (n *Net) NumQueues() int { return 2 * n.pairs }

// Config implements Backend: a fixed MAC address.
func (n *Net) Config() []byte { return []byte{0x52, 0x54, 0x5A, 0x49, 0x4F, 0x4E} }

// Notify implements Backend. Even queues are RX, odd are TX.
func (n *Net) Notify(q int) error {
	if q < 0 || q >= 2*n.pairs {
		return fmt.Errorf("virtio-net: bad queue %d", q)
	}
	if q%2 == NetTXQ {
		return n.drainTX(q / 2)
	}
	// Fresh RX buffers: flush anything queued for this pair.
	return n.flushPending(q / 2)
}

// drainTX drains one pair's TX ring in batches: one avail-index read and
// one used-ring publish per batch.
func (n *Net) drainTX(pair int) error {
	queue := n.dev.Queue(2*pair + NetTXQ)
	mem := n.dev.Mem()
	for {
		chains, err := queue.PopBatch(mem, 0)
		if err != nil {
			return err
		}
		if len(chains) == 0 {
			return nil
		}
		if cap(n.used) < int(queue.Size) {
			n.used = make([]UsedElem, 0, int(queue.Size))
		}
		n.used = n.used[:0]
		completed := 0
		for i := range chains {
			ch := &chains[i]
			fl := ch.ReadCap()
			if fl > netMaxFrame {
				return &ChainError{Kind: ChainFrameTooLong, Head: ch.Head, Index: ch.Head}
			}
			if uint64(cap(n.frame)) < fl {
				n.frame = make([]byte, fl)
			}
			frame := n.frame[:fl]
			if err := ch.Gather(mem, frame, 0); err != nil {
				return err
			}
			n.used = append(n.used, UsedElem{Head: ch.Head, Written: 0})
			completed++
			if len(frame) < NetHdrLen {
				continue
			}
			payload := frame[NetHdrLen:]
			n.TxFrames++
			n.TxBytes += uint64(len(payload))
			switch {
			case n.Tap != nil:
				n.Tap(payload)
			case n.peer != nil:
				if err := n.peer.deliverTo(pair, payload); err != nil {
					return err
				}
			}
		}
		if err := queue.PushBatch(mem, n.used); err != nil {
			return err
		}
		n.dev.Completed(completed)
	}
}

// Inject queues a frame toward the guest on pair 0 (host-side senders
// use this).
func (n *Net) Inject(payload []byte) error { return n.deliverTo(0, payload) }

// InjectTo queues a frame toward the guest on a specific queue pair.
func (n *Net) InjectTo(pair int, payload []byte) error { return n.deliverTo(pair, payload) }

// rxBacklog is one pair's RX side. Once warm it allocates nothing: a
// queued payload is copied into a buffer taken from spare, and a frame
// leaving the backlog, delivered or dropped, returns its buffer there
// (up to rxSpareMax buffers; a longer backlog's extra buffers are freed).
type rxBacklog struct {
	frames [][]byte // frames[head:] await RX buffers, oldest first
	head   int
	spare  [][]byte
	// frame is the scratch header+payload handed to the posted chain.
	frame []byte
}

// push queues a copy of payload.
func (b *rxBacklog) push(payload []byte) {
	var buf []byte
	if k := len(b.spare); k > 0 {
		buf, b.spare = b.spare[k-1][:0], b.spare[:k-1]
	}
	if b.head > 0 && len(b.frames) == cap(b.frames) {
		// Full, with retired slots at the front: slide the backlog down
		// instead of growing it.
		live := copy(b.frames, b.frames[b.head:])
		clear(b.frames[live:])
		b.frames, b.head = b.frames[:live], 0
	}
	b.frames = append(b.frames, append(buf, payload...))
}

// rxSpareMax bounds the buffers a pair keeps for reuse.
const rxSpareMax = 64

// pop retires the oldest queued frame and recycles its buffer.
func (b *rxBacklog) pop() {
	if len(b.spare) < rxSpareMax {
		b.spare = append(b.spare, b.frames[b.head])
	}
	b.frames[b.head] = nil
	if b.head++; b.head == len(b.frames) {
		b.frames, b.head = b.frames[:0], 0
	}
}

// wire returns the frame a posted RX chain receives for payload: a zeroed
// virtio-net header, then the payload, in the pair's scratch buffer.
func (b *rxBacklog) wire(payload []byte) []byte {
	need := NetHdrLen + len(payload)
	if cap(b.frame) < need {
		b.frame = make([]byte, need)
	}
	f := b.frame[:need]
	clear(f[:NetHdrLen])
	copy(f[NetHdrLen:], payload)
	return f
}

func (n *Net) deliverTo(pair int, payload []byte) error {
	if pair < 0 || pair >= n.pairs {
		pair = 0
	}
	n.rx[pair].push(payload)
	return n.flushPending(pair)
}

// flushPending delivers queued RX frames one per posted buffer, through
// the same PopBatch/PushBatch pump as every other queue, and leaves the
// rest pending when the guest has no buffer posted.
func (n *Net) flushPending(pair int) error {
	queue := n.dev.Queue(2*pair + NetRXQ)
	mem := n.dev.Mem()
	b := &n.rx[pair]
	completed := 0
	for b.head < len(b.frames) {
		chains, err := queue.PopBatch(mem, 1)
		if err != nil {
			return err
		}
		if len(chains) == 0 {
			break // no buffers; frames stay pending
		}
		ch := &chains[0]
		payload := b.frames[b.head]
		used := [1]UsedElem{{Head: ch.Head}}
		delivered := ch.WriteCap() >= uint64(NetHdrLen+len(payload))
		if delivered {
			if used[0].Written, err = ch.WriteAll(mem, b.wire(payload)); err != nil {
				return err
			}
		} else {
			n.DroppedRx++
		}
		if err := queue.PushBatch(mem, used[:]); err != nil {
			return err
		}
		if delivered {
			n.RxFrames++
			n.RxBytes += uint64(len(payload))
			completed++
		}
		b.pop()
	}
	n.dev.Completed(completed)
	return nil
}
