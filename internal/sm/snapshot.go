package sm

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"zion/internal/hart"
	"zion/internal/isa"
)

// Sealed snapshots extend the suspension lifecycle to suspend-to-disk:
// the SM serializes a suspended CVM — measurement, every vCPU's secure
// state, and all private memory — into an AES-256-GCM-sealed blob written
// to *normal* memory, where the untrusted hypervisor may store, move, or
// later present it for restore. Confidentiality and integrity come from
// the platform sealing key; the hypervisor handles only ciphertext.
// (The paper lists suspension among the SM's lifecycle duties in §III.A;
// sealed export is the VirTEE-style extension built on it.)

// snapshot wire format (plaintext, before sealing):
//
//	magic u64 | cvmEntryPC u64 | measurement [32] |
//	nvcpus u32 | vcpu records... | npages u32 | (gpa u64, page [4096])...
const snapMagic = 0x5A494F4E534E5033 // "ZIONSNP3": vCPU records carry hvip and vsie

// vcpuRecordLen is the serialized size of one secure vCPU.
const vcpuRecordLen = 32*8 + 8 + 1 + 10*8

// sealKey derives the AEAD key from the platform key.
func (s *SM) sealKey() []byte {
	mac := hmac.New(sha256.New, s.att.key)
	mac.Write([]byte("zion-snapshot-sealing-v1"))
	return mac.Sum(nil)
}

func (s *SM) aead() (cipher.AEAD, error) {
	block, err := aes.NewCipher(s.sealKey())
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// Snapshot seals a *suspended* CVM into the normal-memory buffer at
// [destPA, destPA+maxLen) and returns the blob length. The CVM remains
// suspended (resume or destroy both stay legal afterwards).
func (s *SM) Snapshot(h *hart.Hart, id int, destPA, maxLen uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if gerr := s.gateEnter(h, CompHost, CompLifecycle, "snapshot", false); gerr != nil {
		return 0, wrapErr("snapshot", id, gerr)
	}
	c, err := s.cvm(id)
	if err != nil {
		return 0, err
	}
	if c.state != stSuspended {
		return 0, ErrBadState // quiesce first: no vCPU may be mid-run
	}
	if s.alloc.pool.contains(destPA, maxLen) || !s.ram.Contains(destPA, maxLen) {
		return 0, ErrNotNormal
	}

	var buf []byte
	le := binary.LittleEndian
	app64 := func(v uint64) { buf = le.AppendUint64(buf, v) }
	app64(snapMagic)
	app64(c.entryPC)
	buf = append(buf, c.measurer.value()...)
	buf = le.AppendUint32(buf, uint32(len(c.vcpus)))
	for _, v := range c.vcpus {
		for _, x := range v.sec.X {
			app64(x)
		}
		app64(v.sec.PC)
		buf = append(buf, byte(v.sec.Mode))
		for _, csr := range []uint64{v.sec.Vsstatus, v.sec.Vsepc, v.sec.Vscause,
			v.sec.Vstval, v.sec.Vstvec, v.sec.Vsscratch, v.sec.Vsatp,
			v.sec.TimerDeadline, v.sec.Hvip, v.sec.Vsie} {
			app64(csr)
		}
	}
	// Pages go out in ascending GPA order, so a restore rebuilds the same
	// frame layout on every run.
	buf = le.AppendUint32(buf, uint32(c.mappings.len()))
	for gpa, pa, ok := c.mappings.next(0); ok; gpa, pa, ok = c.mappings.next(gpa + isa.PageSize) {
		app64(gpa)
		page, err := s.ram.Read(pa, isa.PageSize)
		if err != nil {
			return 0, err
		}
		buf = append(buf, page...)
		h.Advance(uint64(isa.PageSize/64) * h.Cost.CacheLineCopy)
	}

	// Sealing crosses into the attestation compartment: the AEAD key
	// derives from the platform key and the nonce from the platform DRBG,
	// both attest-owned. A quarantined attest compartment refuses to seal
	// (the CVM stays suspended; resume and destroy remain legal).
	var out []byte
	if gerr := s.gate(h, CompLifecycle, CompAttest, "seal-snapshot", func() error {
		aead, aerr := s.aead()
		if aerr != nil {
			return aerr
		}
		// Deterministic per-snapshot nonce: platform DRBG output. GCM nonce
		// reuse across distinct plaintexts would be fatal; the DRBG is a
		// counter-mode generator, so outputs never repeat.
		nonce := make([]byte, aead.NonceSize())
		for i := 0; i < len(nonce); i++ {
			if i%8 == 0 {
				var w [8]byte
				le.PutUint64(w[:], s.att.rng.next())
				copy(nonce[i:], w[:])
			}
		}
		sealed := aead.Seal(nil, nonce, buf, []byte("zion-cvm-snapshot"))
		out = append(nonce, sealed...)
		return nil
	}); gerr != nil {
		return 0, wrapErr("snapshot", id, gerr)
	}
	if uint64(len(out)) > maxLen {
		return 0, fmt.Errorf("%w: snapshot needs %d bytes, buffer holds %d",
			ErrBadArgs, len(out), maxLen)
	}
	if err := s.ram.Write(destPA, out); err != nil {
		return 0, err
	}
	return uint64(len(out)), nil
}

// Restore unseals a snapshot blob from normal memory into a *new* CVM,
// rebuilding private memory and vCPU state. The restored CVM carries the
// original measurement, so existing attestation relationships survive.
func (s *SM) Restore(h *hart.Hart, srcPA, length uint64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if gerr := s.gateEnter(h, CompHost, CompLifecycle, "restore", false); gerr != nil {
		return 0, wrapErr("restore", 0, gerr)
	}
	if s.alloc.pool.contains(srcPA, length) || !s.ram.Contains(srcPA, length) {
		return 0, ErrNotNormal
	}
	blob, err := s.ram.Read(srcPA, length)
	if err != nil {
		return 0, err
	}
	// Unsealing needs the platform key: an attestation-compartment loss
	// refuses restores with a typed error (the blob is still intact in
	// normal memory and can be restored after reboot).
	var buf []byte
	if gerr := s.gate(h, CompLifecycle, CompAttest, "unseal-snapshot", func() error {
		aead, aerr := s.aead()
		if aerr != nil {
			return aerr
		}
		if uint64(len(blob)) < uint64(aead.NonceSize()) {
			return ErrBadArgs
		}
		nonce, sealed := blob[:aead.NonceSize()], blob[aead.NonceSize():]
		var oerr error
		buf, oerr = aead.Open(nil, nonce, sealed, []byte("zion-cvm-snapshot"))
		if oerr != nil {
			return fmt.Errorf("%w: snapshot authentication failed", ErrTampered)
		}
		return nil
	}); gerr != nil {
		return 0, gerr
	}

	le := binary.LittleEndian
	off := 0
	rd64 := func() uint64 {
		v := le.Uint64(buf[off:])
		off += 8
		return v
	}
	if rd64() != snapMagic {
		return 0, ErrBadArgs
	}
	entryPC := rd64()
	meas := append([]byte(nil), buf[off:off+32]...)
	off += 32
	nvcpus := int(le.Uint32(buf[off:]))
	off += 4

	// Rebuild the CVM shell.
	id64, err := s.createCVM(h)
	if err != nil {
		return 0, err
	}
	c := s.life.cvms[int(id64)]
	c.entryPC = entryPC
	c.measurer.sum = meas
	c.measurer.sealed = true
	c.state = stRunnable

	for i := 0; i < nvcpus; i++ {
		v := &VCPU{ID: i}
		for r := 0; r < 32; r++ {
			v.sec.X[r] = rd64()
		}
		v.sec.PC = rd64()
		v.sec.Mode = isa.PrivMode(buf[off])
		off++
		v.sec.Vsstatus = rd64()
		v.sec.Vsepc = rd64()
		v.sec.Vscause = rd64()
		v.sec.Vstval = rd64()
		v.sec.Vstvec = rd64()
		v.sec.Vsscratch = rd64()
		v.sec.Vsatp = rd64()
		v.sec.TimerDeadline = rd64()
		v.sec.Hvip = rd64()
		v.sec.Vsie = rd64()
		c.vcpus = append(c.vcpus, v)
	}
	npages := int(le.Uint32(buf[off:]))
	off += 4
	// Rebuilding private memory is one allocator-compartment transaction.
	if gerr := s.gate(h, CompLifecycle, CompAlloc, "restore-pages", func() error {
		for i := 0; i < npages; i++ {
			gpa := rd64()
			pa, _, _, aerr := s.alloc.pool.allocPage(&c.tableCache)
			if aerr != nil {
				_ = s.destroy(h, c.ID)
				return aerr
			}
			if ierr := s.installPage(c, gpa, pa, false, buf[off:off+isa.PageSize]); ierr != nil {
				return ierr
			}
			off += isa.PageSize
			h.Advance(uint64(isa.PageSize/64) * h.Cost.CacheLineCopy)
		}
		return nil
	}); gerr != nil {
		if errors.Is(gerr, ErrCompartment) {
			// The shell exists but cannot be populated: tear it down (the
			// forced teardown direction drains even a down allocator).
			_ = s.destroy(h, c.ID)
		}
		return 0, gerr
	}
	return c.ID, nil
}

// AttachSharedVCPU completes a restore: the hypervisor supplies fresh
// shared-vCPU pages for the restored vCPUs (the old pages were normal
// memory the snapshot deliberately excluded).
func (s *SM) AttachSharedVCPU(id, vcpuID int, sharedPA uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.cvm(id)
	if err != nil {
		return err
	}
	if vcpuID < 0 || vcpuID >= len(c.vcpus) {
		return ErrNotFound
	}
	if sharedPA%isa.PageSize != 0 || !s.ram.Contains(sharedPA, isa.PageSize) ||
		s.alloc.pool.contains(sharedPA, isa.PageSize) {
		return ErrNotNormal
	}
	c.vcpus[vcpuID].sharedPA = sharedPA
	return nil
}
