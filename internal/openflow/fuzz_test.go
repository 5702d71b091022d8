package openflow

import (
	"reflect"
	"testing"
)

// FuzzDecode runs arbitrary bytes through DecodeHeader and then the
// decoder of the header's type — FEATURES_REPLY, PORT_STATUS, FLOW_MOD,
// PACKET_IN, PACKET_OUT, the STATS_REQUEST type and the flow stats reply —
// none of which may panic. A FLOW_MOD that decodes must encode to one
// that decodes to the same value.
func FuzzDecode(f *testing.F) {
	for _, typ := range []uint8{TypeFeaturesReply, TypePortStatus, TypeFlowMod, TypePacketIn, TypePacketOut, TypeStatsRequest} {
		f.Add(sample(typ, 1))
	}
	f.Add(EncodeStatsRequest(1, StatsPort))
	// A FLOW_MOD the switch refuses still decodes with every field.
	f.Add(EncodeFlowMod(1, FlowMod{Command: FCModify, Cookie: 7, IdleTimeout: 5, HardTimeout: 60, Priority: 100}))
	f.Add(EncodeFlowStatsReply(1, []FlowStatsEntry{{Match: TupleToExactMatch(sampleTuple()), Priority: 200, ByteCount: 3000}}))
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
