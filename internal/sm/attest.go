package sm

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// measurer accumulates the launch measurement of a confidential VM:
// every image page (with its GPA) and the entry point are hashed in load
// order, so two CVMs with identical contents and layout — and only those —
// measure identically.
type measurer struct {
	sum    []byte
	sealed bool
	chain  [32]byte
	// h is the one SHA-256 state every extension resets and reuses, and
	// word the scratch for the little-endian GPA it hashes.
	h    hash.Hash
	word [8]byte
}

func newMeasurer() *measurer {
	m := &measurer{h: sha256.New()}
	m.chain = sha256.Sum256([]byte("zion-launch-measurement-v1"))
	return m
}

// extendPage folds one image page into the measurement: chain becomes
// SHA-256(chain || gpa as 8 little-endian bytes || data).
func (m *measurer) extendPage(gpa uint64, data []byte) {
	if m.sealed {
		return
	}
	binary.LittleEndian.PutUint64(m.word[:], gpa)
	m.h.Reset()
	m.h.Write(m.chain[:])
	m.h.Write(m.word[:])
	m.h.Write(data)
	m.h.Sum(m.chain[:0]) // chain has room for the sum: no allocation
}

// extendEntry folds the boot entry point into the measurement.
func (m *measurer) extendEntry(pc uint64) {
	if m.sealed {
		return
	}
	var g [8]byte
	binary.LittleEndian.PutUint64(g[:], pc)
	h := sha256.New()
	h.Write(m.chain[:])
	h.Write([]byte("entry"))
	h.Write(g[:])
	copy(m.chain[:], h.Sum(nil))
}

// seal freezes the measurement.
func (m *measurer) seal() {
	m.sealed = true
	m.sum = append([]byte(nil), m.chain[:]...)
}

// value returns the sealed 32-byte measurement (nil before seal).
func (m *measurer) value() []byte { return m.sum }

// attestationReport builds the guest-visible report: measurement, CVM id,
// caller nonce, all MAC'd with the platform key. A verifier holding the
// key (or, in a full deployment, the corresponding public parameters)
// checks the MAC and compares the measurement with the expected launch
// digest.
func (s *SM) attestationReport(c *CVM, nonce uint64) []byte {
	body := make([]byte, 0, 48)
	body = append(body, c.measurer.value()...)
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(c.ID))
	body = append(body, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], nonce)
	body = append(body, tmp[:]...)
	mac := hmac.New(sha256.New, s.att.key)
	mac.Write(body)
	return append(body, mac.Sum(nil)...)
}

// VerifyReport checks a report produced by attestationReport. Exposed so
// examples and tests can play the remote verifier.
func (s *SM) VerifyReport(report []byte) (measurement []byte, cvmID, nonce uint64, ok bool) {
	if len(report) != 48+32 {
		return nil, 0, 0, false
	}
	body, tag := report[:48], report[48:]
	mac := hmac.New(sha256.New, s.att.key)
	mac.Write(body)
	if !hmac.Equal(tag, mac.Sum(nil)) {
		return nil, 0, 0, false
	}
	return body[:32], binary.LittleEndian.Uint64(body[32:40]),
		binary.LittleEndian.Uint64(body[40:48]), true
}

// drbg is a deterministic HMAC-based generator standing in for the
// platform TRNG: deterministic so simulations are reproducible, keyed so
// guests cannot predict each other's outputs.
type drbg struct {
	key   []byte
	ctr   uint64
	cache []byte
}

func newDRBG(seed []byte) *drbg {
	k := sha256.Sum256(seed)
	return &drbg{key: k[:]}
}

// next returns 64 bits of entropy.
func (d *drbg) next() uint64 {
	if len(d.cache) < 8 {
		mac := hmac.New(sha256.New, d.key)
		var c [8]byte
		binary.LittleEndian.PutUint64(c[:], d.ctr)
		d.ctr++
		mac.Write(c[:])
		d.cache = mac.Sum(nil)
	}
	v := binary.LittleEndian.Uint64(d.cache[:8])
	d.cache = d.cache[8:]
	return v
}

// PlatformKey exposes the platform attestation key for verifier
// provisioning (in a deployment this exchange happens at manufacturing;
// the simulator hands it to the relying party directly).
func (s *SM) PlatformKey() []byte { return append([]byte(nil), s.att.key...) }

// BuildReport produces the same signed report the guest obtains through
// the SBI Attest call, for flows where the relying party challenges
// out-of-band (e.g. immediately after a restore).
func (s *SM) BuildReport(id int, nonce uint64) ([]byte, error) {
	// Out-of-band reports cross straight from the host into the
	// attestation compartment (no hart context: the relying party is off
	// the simulated machine, so no cycles are charged).
	if gerr := s.gateEnter(nil, CompHost, CompAttest, "build-report", false); gerr != nil {
		return nil, wrapErr("build-report", id, gerr)
	}
	c, err := s.cvm(id)
	if err != nil {
		return nil, err
	}
	if c.state == stBuilding {
		return nil, ErrBadState
	}
	return s.attestationReport(c, nonce), nil
}
