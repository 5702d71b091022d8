package openflow

import (
	"encoding/binary"
	"fmt"
)

// State is where one end of an OpenFlow channel stands in the handshake.
// Both ends start in HelloWait; the zero value is no state, and in a
// table it means "no step".
type State uint8

const (
	noStep State = iota
	StateHelloWait
	StateFeaturesWait
	StateReady
	numStates
)

// String names the state ("HelloWait", "FeaturesWait", "Ready").
func (s State) String() string {
	switch s {
	case StateHelloWait:
		return "HelloWait"
	case StateFeaturesWait:
		return "FeaturesWait"
	case StateReady:
		return "Ready"
	default:
		return fmt.Sprintf("state%d", int(s))
	}
}

// numTypes bounds the message types a table has a column for; a type at
// or above it has no step anywhere.
const numTypes = TypeBarrierReply + 1

// table is what one end of the channel acts on: table[from][typ] is the
// state a received message of type typ takes the end in from to, and
// noStep where the end does not act on it. A message with no step is
// refused: answered with one OFPT_ERROR and not acted on.
type table [numStates][numTypes]State

// switchTable is the agent's end. Ready is entered only by the
// controller's FEATURES_REQUEST, after its HELLO; table changes and
// statistics are served from Ready only. A PACKET_OUT has no step: the
// fluid data plane has no packet to send.
var switchTable = table{
	StateHelloWait:    {TypeHello: StateFeaturesWait, TypeEchoRequest: StateHelloWait},
	StateFeaturesWait: {TypeFeaturesRequest: StateReady, TypeEchoRequest: StateFeaturesWait},
	StateReady: {
		TypeFeaturesRequest: StateReady, TypeEchoRequest: StateReady,
		TypeBarrierRequest: StateReady, TypeFlowMod: StateReady, TypeStatsRequest: StateReady,
	},
}

// controllerTable is the controller's end. Ready is entered only by the
// switch's FEATURES_REPLY, after its HELLO; a later FEATURES_REPLY only
// refreshes the ports. Asynchronous messages and replies are taken from
// Ready only; an ERROR is taken in every state.
var controllerTable = table{
	StateHelloWait:    {TypeHello: StateFeaturesWait, TypeEchoRequest: StateHelloWait, TypeError: StateHelloWait},
	StateFeaturesWait: {TypeFeaturesReply: StateReady, TypeEchoRequest: StateFeaturesWait, TypeError: StateFeaturesWait},
	StateReady: {
		TypeFeaturesReply: StateReady, TypeEchoRequest: StateReady, TypeError: StateReady,
		TypePacketIn: StateReady, TypePortStatus: StateReady, TypeStatsReply: StateReady, TypeBarrierReply: StateReady,
	},
}

// End is one end of an OpenFlow channel: the table it acts by and the
// state it is in. Step is the only writer of the state. An End is not
// safe for concurrent use; its owner serializes access.
type End struct {
	t     *table
	state State
}

// SwitchEnd returns the switch's end of a channel, in HelloWait.
func SwitchEnd() End { return End{&switchTable, StateHelloWait} }

// ControllerEnd returns the controller's end of a channel, in HelloWait.
func ControllerEnd() End { return End{&controllerTable, StateHelloWait} }

// State reports where the end stands.
func (e *End) State() State { return e.state }

// Step moves the end on a received message of type typ and returns the
// state it left; ok is false where the table has no step, and the end
// stays where it was.
func (e *End) Step(typ uint8) (from State, ok bool) {
	from = e.state
	if typ >= numTypes {
		return from, false
	}
	to := e.t[from][typ]
	if to == noStep {
		return from, false
	}
	e.state = to
	return from, true
}

// Refusal is the OFPT_ERROR answering raw, a message the end has no step
// for: OFPET_BAD_REQUEST with OFPBRC_BAD_TYPE for a type the end acts on
// in no state, OFPBRC_EPERM for one it acts on only in another.
func (e *End) Refusal(raw []byte) []byte {
	code := uint16(brcBadType)
	if typ := raw[1]; typ < numTypes {
		for _, row := range e.t {
			if row[typ] != noStep {
				code = brcEPerm
			}
		}
	}
	return encodeError(raw, errBadRequest, code)
}

// The error type and codes (ofp_error_type, ofp_bad_request_code) an end
// answers with.
const (
	errBadRequest = 1 // OFPET_BAD_REQUEST
	brcBadType    = 1 // OFPBRC_BAD_TYPE: the end never acts on this type
	brcBadStat    = 2 // OFPBRC_BAD_STAT: unsupported statistics type
	brcEPerm      = 5 // OFPBRC_EPERM: not in the end's current state
	brcBadLen     = 6 // OFPBRC_BAD_LEN: the body does not decode
)

// encodeError builds the OFPT_ERROR answering raw: raw's xid, and as data
// the first 64 bytes of raw, as OpenFlow 1.0 asks.
func encodeError(raw []byte, typ, code uint16) []byte {
	data := raw[:min(len(raw), 64)]
	b := make([]byte, headerLen+4+len(data))
	putHeader(b, TypeError, len(b), binary.BigEndian.Uint32(raw[4:8]))
	binary.BigEndian.PutUint16(b[8:10], typ)
	binary.BigEndian.PutUint16(b[10:12], code)
	copy(b[12:], data)
	return b
}
