package openflow

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
)

// FuzzDecode runs arbitrary bytes through DecodeHeader and then the
// decoder of the header's type — FEATURES_REPLY, PORT_STATUS, FLOW_MOD,
// PACKET_IN, PACKET_OUT, the STATS_REQUEST type and the flow stats reply —
// none of which may panic. A FLOW_MOD that decodes must encode to one
// that decodes to the same value, and decoding it into a used FlowMod, as
// the agent does, must give what a fresh decode gives: the same value, or
// an error where it errs.
func FuzzDecode(f *testing.F) {
	for _, typ := range []uint8{TypeFeaturesReply, TypePortStatus, TypeFlowMod, TypePacketIn, TypePacketOut, TypeStatsRequest} {
		f.Add(sample(typ, 1))
	}
	f.Add(EncodeStatsRequest(1, StatsPort))
	// A FLOW_MOD the switch refuses still decodes with every field.
	f.Add(EncodeFlowMod(1, FlowMod{Command: FCModify, Cookie: 7, IdleTimeout: 5, HardTimeout: 60, Priority: 100}))
	f.Add(EncodeFlowStatsReply(1, []FlowStatsEntry{{Match: TupleToExactMatch(sampleTuple()), Priority: 200, ByteCount: 3000}}))
	// What the used FlowMods held before: groups of other sizes in other
	// slots, an OUTPUT where a group will land, and no actions at all.
	used := [][]byte{
		sample(TypeFlowMod, 1),
		EncodeFlowMod(2, FlowMod{Command: FCDeleteStrict, Priority: 100}),
		EncodeFlowMod(3, FlowMod{Command: FCAdd, Actions: []Action{
			{Group: []core.PortID{1, 2, 3, 4, 5, 6, 7}}, {Output: 9}, {Group: []core.PortID{8}}, {ToCtrl: true},
		}}),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHeader(data)
		if err != nil {
			return
		}
		switch h.Type {
		case TypeFeaturesReply:
			_, _ = DecodeFeaturesReply(data)
		case TypePortStatus:
			_, _ = DecodePortStatus(data)
		case TypePacketIn:
			_, _ = DecodePacketIn(data)
		case TypePacketOut:
			_, _ = DecodePacketOut(data)
		case TypeStatsRequest:
			_, _ = DecodeStatsRequestType(data)
		case TypeStatsReply:
			_, _ = DecodeFlowStatsReply(data)
		case TypeFlowMod:
			fm, err := DecodeFlowMod(data)
			var warm FlowMod
			if err := DecodeFlowModInto(&warm, used[len(data)%len(used)]); err != nil {
				t.Fatal(err)
			}
			switch werr := DecodeFlowModInto(&warm, data); {
			case (werr == nil) != (err == nil):
				t.Fatalf("decoding into a used FlowMod errs %v, a fresh decode %v", werr, err)
			case err == nil && !sameFlowMod(warm, fm):
				t.Fatalf("decoded into a used FlowMod:\n%+v\nDecodeFlowMod:\n%+v", warm, fm)
			}
			if err != nil {
				return
			}
			again, err := DecodeFlowMod(EncodeFlowMod(h.XID, fm))
			if err != nil {
				t.Fatalf("re-encoded %+v does not decode: %v", fm, err)
			}
			if !reflect.DeepEqual(again, fm) {
				t.Fatalf("round trip changed the FLOW_MOD:\n got %+v\nwant %+v", again, fm)
			}
		}
	})
}

// sameFlowMod is FlowMod equality that does not tell a nil slice from an
// empty one: a used FlowMod keeps its storage where a fresh one has none.
func sameFlowMod(a, b FlowMod) bool {
	return a.Match == b.Match && a.Cookie == b.Cookie && a.Command == b.Command &&
		a.IdleTimeout == b.IdleTimeout && a.HardTimeout == b.HardTimeout && a.Priority == b.Priority &&
		slices.EqualFunc(a.Actions, b.Actions, func(x, y Action) bool {
			return x.Output == y.Output && x.ToCtrl == y.ToCtrl && slices.Equal(x.Group, y.Group)
		})
}
