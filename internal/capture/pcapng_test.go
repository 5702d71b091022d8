package capture

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/core"
)

// The golden blocks pin the exact little-endian pcapng framing: a
// regression here means Wireshark compatibility broke, not just our own
// reader.

func TestGoldenSHB(t *testing.T) {
	want := "0a0d0d0a" + // block type
		"1c000000" + // total length 28
		"4d3c2b1a" + // byte-order magic, little-endian
		"0100" + "0000" + // version 1.0
		"ffffffffffffffff" + // section length: unspecified
		"1c000000" // trailing total length
	if got := hex.EncodeToString(encodeSHB()); got != want {
		t.Errorf("SHB:\n got %s\nwant %s", got, want)
	}
}

func TestGoldenIDB(t *testing.T) {
	want := "01000000" + // block type
		"28000000" + // total length 40
		"0100" + // LINKTYPE_ETHERNET
		"0000" + // reserved
		"00000000" + // snaplen: unlimited
		"0200" + "0200" + "7331" + "0000" + // if_name "s1", padded
		"0900" + "0100" + "09" + "000000" + // if_tsresol: nanoseconds
		"00000000" + // opt_endofopt
		"28000000" // trailing total length
	if got := hex.EncodeToString(encodeIDB("s1")); got != want {
		t.Errorf("IDB:\n got %s\nwant %s", got, want)
	}
}

func TestGoldenEPB(t *testing.T) {
	at := core.Time(0x1122334455) // ns timestamp split across high/low words
	data := []byte{0xde, 0xad, 0xbe, 0xef, 0x01}
	want := "06000000" + // block type
		"28000000" + // total length 32 + pad4(5)
		"00000000" + // interface 0
		"11000000" + // timestamp high
		"55443322" + // timestamp low
		"05000000" + // captured length
		"05000000" + // original length
		"deadbeef01" + "000000" + // data, padded to 32 bits
		"28000000" // trailing total length
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddInterface("s1"); err != nil {
		t.Fatal(err)
	}
	// A longer packet first: the block the writer reuses must not leak
	// its padding or trailer into the next one.
	if err := w.WritePacket(0, at, make([]byte, 7)); err != nil {
		t.Fatal(err)
	}
	head := buf.Len()
	if err := w.WritePacket(0, at, data); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()[head:]); got != want {
		t.Errorf("EPB:\n got %s\nwant %s", got, want)
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	i0, err := w.AddInterface("first")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(i0, 5*core.Millisecond, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Interfaces may be declared mid-file (a re-peered session appends
	// one); packets may then reference either.
	i1, err := w.AddInterface("second")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(i1, 7*core.Millisecond, []byte{4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(i0, 9*core.Millisecond, []byte{8}); err != nil {
		t.Fatal(err)
	}

	tr, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Interfaces) != 2 || tr.Interfaces[0] != "first" || tr.Interfaces[1] != "second" {
		t.Fatalf("interfaces = %q", tr.Interfaces)
	}
	wantPkts := []Packet{
		{Interface: 0, Time: 5 * core.Millisecond, Data: []byte{1, 2, 3}},
		{Interface: 1, Time: 7 * core.Millisecond, Data: []byte{4, 5, 6, 7}},
		{Interface: 0, Time: 9 * core.Millisecond, Data: []byte{8}},
	}
	if len(tr.Packets) != len(wantPkts) {
		t.Fatalf("got %d packets, want %d", len(tr.Packets), len(wantPkts))
	}
	for i, want := range wantPkts {
		got := tr.Packets[i]
		if got.Interface != want.Interface || got.Time != want.Time || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("packet %d = %+v, want %+v", i, got, want)
		}
	}
}

func TestWriterRejectsUndeclaredInterface(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(0, 0, []byte{1}); err == nil {
		t.Fatal("packet on undeclared interface accepted")
	}
}

func TestParseRejectsCorruptFraming(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddInterface("x"); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(0, core.Second, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	for name, corrupt := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)-5] },
		"trailing length mismatch": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-4]++
			return c
		},
		"no section header": func(b []byte) []byte { return b[28:] },
		"bad magic": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[8] = 0x00
			return c
		},
	} {
		if _, err := Parse(corrupt(append([]byte(nil), good...))); err == nil {
			t.Errorf("%s: corrupt trace accepted", name)
		}
	}
}
