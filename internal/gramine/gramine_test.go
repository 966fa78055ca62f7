package gramine

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultManifestValidates(t *testing.T) {
	m := DefaultManifest("/models/w.bin", 8<<30, 32)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.EncryptedFiles) != 1 || !strings.Contains(m.EncryptedFiles[0], "/models/w.bin") {
		t.Errorf("EncryptedFiles = %v", m.EncryptedFiles)
	}
}

func TestSyscallClassify(t *testing.T) {
	if Classify("futex") != InEnclave {
		t.Error("futex should be in-enclave")
	}
	if Classify("read") != OCALL {
		t.Error("read should be an OCALL")
	}
	if Classify("fork") != Unsupported {
		t.Error("fork should be unsupported")
	}
	if Classify("made_up_syscall") != OCALL {
		t.Error("unknown syscalls should conservatively be OCALLs")
	}
	for _, c := range []SyscallClass{InEnclave, OCALL, Unsupported} {
		if c.String() == "" {
			t.Error("empty class name")
		}
	}
}

func TestInferenceLoopProfile(t *testing.T) {
	p := Profile(InferenceLoopSyscalls())
	if p.Total != len(InferenceLoopSyscalls()) {
		t.Errorf("Total = %d", p.Total)
	}
	if p.Unsupported != 0 {
		t.Error("inference loop contains unsupported syscalls")
	}
	// The loop must be dominated by in-enclave emulation — that is why SGX
	// overheads stay below 10% for this workload (Insight 4).
	if p.InEnclave <= p.Exits {
		t.Errorf("in-enclave %d <= exits %d; loop would thrash", p.InEnclave, p.Exits)
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	key := DeriveKey([]byte("enclave-measurement"), "default")
	msg := []byte("llama2 weights: confidential")
	sealed, err := Seal(key, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unseal(key, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip mismatch")
	}
	// Ciphertext must not contain the plaintext.
	if bytes.Contains(sealed, msg) {
		t.Fatal("plaintext visible in sealed blob")
	}
}

func TestUnsealRejectsTampering(t *testing.T) {
	key := DeriveKey([]byte("m"), "k")
	sealed, err := Seal(key, []byte("secret model weights"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, 5, headerSize + 2, len(sealed) - 1} {
		tampered := append([]byte(nil), sealed...)
		tampered[pos] ^= 0x40
		if _, err := Unseal(key, tampered); err == nil {
			t.Errorf("tampering at byte %d not detected", pos)
		}
	}
	// Wrong key fails too.
	other := DeriveKey([]byte("m2"), "k")
	if _, err := Unseal(other, sealed); err == nil {
		t.Error("unseal with wrong key succeeded")
	}
	// Truncated blob fails.
	if _, err := Unseal(key, sealed[:10]); err == nil {
		t.Error("truncated blob unsealed")
	}
}

func TestSealProperty(t *testing.T) {
	key := DeriveKey([]byte("meas"), "prop")
	if err := quick.Check(func(data []byte) bool {
		sealed, err := Seal(key, data)
		if err != nil {
			return false
		}
		got, err := Unseal(key, sealed)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyDerivationSeparation(t *testing.T) {
	a := DeriveKey([]byte("m1"), "k")
	b := DeriveKey([]byte("m2"), "k")
	c := DeriveKey([]byte("m1"), "k2")
	if a == b || a == c || b == c {
		t.Error("derived keys collide across measurement/name changes")
	}
}

func TestStore(t *testing.T) {
	key := DeriveKey([]byte("m"), "store")
	s := NewStore(key)
	if err := s.Put("/models/w.bin", []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("/models/w.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatal("store round trip mismatch")
	}
	if _, err := s.Get("/nope"); err == nil {
		t.Error("missing file read succeeded")
	}
	raw, ok := s.files["/models/w.bin"]
	if !ok || bytes.Contains(raw, []byte{1, 2, 3, 4}) {
		// 4 bytes could appear by chance, but with probability ~2^-30; treat
		// presence as failure.
		if bytes.Contains(raw, []byte{1, 2, 3, 4}) {
			t.Error("plaintext visible in raw store")
		}
	}
}
