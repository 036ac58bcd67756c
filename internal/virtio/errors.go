package virtio

import "fmt"

// ChainErrorKind classifies the ways a driver-authored descriptor chain
// can be malformed. The device refuses the whole queue (DEVICE_NEEDS_RESET)
// rather than guessing at intent — silently truncating a hostile chain is
// exactly the DMA-confusion bug class the IOPMP story is about.
type ChainErrorKind int

const (
	// ChainLoop: a descriptor's next index revisits one already walked.
	ChainLoop ChainErrorKind = iota
	// ChainTooLong: more descriptors than the queue has slots.
	ChainTooLong
	// ChainBadIndex: a head or next index at or past the queue size.
	ChainBadIndex
	// ChainLenOverflow: a segment length that wraps the GPA space or
	// exceeds the per-segment sanity cap.
	ChainLenOverflow
	// ChainOrder: a readable segment after a writable one (spec §2.6.4.2).
	ChainOrder
	// ChainBadAvail: the avail index advertises more chains than the ring
	// can hold outstanding.
	ChainBadAvail
	// ChainNoHeader: a blk request with fewer readable bytes than its
	// 16-byte header.
	ChainNoHeader
	// ChainNoStatus: a blk request whose last writable segment cannot
	// hold the status byte (no writable segment, or an empty last one).
	ChainNoStatus
	// ChainFrameTooLong: a net TX frame longer than netMaxFrame.
	ChainFrameTooLong
)

// String names the kind for error text and test failure messages.
func (k ChainErrorKind) String() string {
	switch k {
	case ChainLoop:
		return "descriptor loop"
	case ChainTooLong:
		return "chain longer than queue"
	case ChainBadIndex:
		return "descriptor index out of range"
	case ChainLenOverflow:
		return "segment length overflow"
	case ChainOrder:
		return "readable segment after writable"
	case ChainBadAvail:
		return "avail index ahead of ring capacity"
	case ChainNoHeader:
		return "request shorter than its header"
	case ChainNoStatus:
		return "no room for the status byte"
	case ChainFrameTooLong:
		return "frame longer than the device accepts"
	}
	return "unknown chain error"
}

// maxSegLen caps a single descriptor's length, and the data one blk
// request moves. The largest legitimate segment any driver here posts is
// well under a megabyte; a length in the gigabytes is a corrupt or
// hostile descriptor, not a big request.
const maxSegLen = 1 << 30

// ChainError is the typed rejection of a malformed descriptor chain.
type ChainError struct {
	Kind ChainErrorKind
	// Head is the chain's head descriptor index; Index the descriptor at
	// which validation failed (Head for the request-level kinds, which a
	// device finds after the walk).
	Head  uint16
	Index uint16
}

// Error implements error.
func (e *ChainError) Error() string {
	return fmt.Sprintf("virtio: %s (head %d, desc %d)", e.Kind, e.Head, e.Index)
}
