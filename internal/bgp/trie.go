package bgp

import "net/netip"

// v4key converts a masked IPv4 prefix to trie key form.
func v4key(p netip.Prefix) (uint32, uint8) {
	a4 := p.Masked().Addr().As4()
	return uint32(a4[0])<<24 | uint32(a4[1])<<16 | uint32(a4[2])<<8 | uint32(a4[3]), uint8(p.Bits())
}

// keyPrefix returns the netip form of a trie key.
func keyPrefix(addr uint32, length uint8) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{
		byte(addr >> 24), byte(addr >> 16), byte(addr >> 8), byte(addr),
	}), int(length))
}

// pfxKey is a trie key packed into one integer, addr<<8 | len. Its
// integer order is the (address, length) order the trie walks in, so a
// batch of prefixes sorts as plain integers; a session's pending
// advertisements are a log of them (advBatch), each with a run number in
// the bits a pfxKey leaves free.
type pfxKey uint64

// pfxKeyBits is how many low bits of an integer a pfxKey occupies.
const pfxKeyBits = 40

func prefixKey(p netip.Prefix) pfxKey {
	addr, length := v4key(p)
	return pfxKey(addr)<<8 | pfxKey(length)
}

// prefix reads the low pfxKeyBits bits only.
func (k pfxKey) prefix() netip.Prefix { return keyPrefix(uint32(k>>8), uint8(k)) }
