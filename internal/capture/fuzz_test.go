package capture

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the pcapng reader. Parse and then
// Decode never panic, and whatever parses, written back out through
// Writer, parses to the same interfaces and packets. The corpus in
// testdata/fuzz/FuzzParse holds a trace from the capture writer and one
// whose stream ends inside a message.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Parse(data)
		if err != nil {
			return
		}
		_, _ = Decode(tr) // an error is a fine answer; a panic is not

		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range tr.Interfaces {
			if _, err := w.AddInterface(name); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range tr.Packets {
			if err := w.WritePacket(p.Interface, p.Time, p.Data); err != nil {
				t.Fatal(err)
			}
		}
		back, err := Parse(buf.Bytes())
		if err != nil {
			t.Fatalf("writer output does not parse: %v", err)
		}
		if !reflect.DeepEqual(back.Interfaces, tr.Interfaces) {
			t.Fatalf("interfaces %q parsed back as %q", tr.Interfaces, back.Interfaces)
		}
		if !reflect.DeepEqual(back.Packets, tr.Packets) {
			t.Fatalf("%d packets parsed back as %d different ones", len(tr.Packets), len(back.Packets))
		}
	})
}
