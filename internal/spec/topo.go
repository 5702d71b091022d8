package spec

import (
	"fmt"
	"strconv"
	"strings"

	horse "repro"
	"repro/internal/topo"
)

// TopoKind names a topology family.
type TopoKind string

// The accepted topology kinds.
const (
	TopoFatTree    TopoKind = "fattree"
	TopoLinear     TopoKind = "linear"
	TopoStar       TopoKind = "star"
	TopoRing       TopoKind = "ring"
	TopoTwoRouters TopoKind = "two-routers"
	TopoWAN        TopoKind = "wan"
	TopoWANMesh    TopoKind = "wan-mesh"
	TopoWANMultiAS TopoKind = "wan-multi-as"
)

// TopoSpec is a parsed -topo argument.
type TopoSpec struct {
	Kind TopoKind
	// K is the fat-tree arity, or the node count of linear/star/ring.
	K int
	// Chord is the ring chord spacing (0 = plain ring).
	Chord int
	// Name is the embedded WAN backbone name (abilene, tier1).
	Name string
	// Seed and PoPs parameterize wan:mesh and wan:multi (PoPs is
	// per-AS for wan:multi).
	Seed int64
	PoPs int
	// ASes and FullTable parameterize wan:multi: the number of
	// eBGP-peered component backbones, and how many synthetic /24s the
	// edge ASes originate between them.
	ASes      int
	FullTable int
}

// topoUsage is the accepted grammar, quoted by parse errors.
const topoUsage = "fattree:K, linear:N, star:N, ring:N[:CHORD], two-routers, wan:NAME, wan:mesh:SEED[:POPS], wan:multi:SEED[:ASES[:POPS[:PREFIXES]]]"

// ParseTopo parses a -topo spec string. It validates shape and
// parameters (including WAN backbone names) without building the graph,
// so it is cheap enough to run at campaign submission time.
func ParseTopo(s string) (TopoSpec, error) {
	if s == "" {
		return TopoSpec{}, fmt.Errorf("spec: empty topology (want %s)", topoUsage)
	}
	kind, rest, hasArg := strings.Cut(s, ":")
	intArg := func(what, arg string) (int, error) {
		n, err := strconv.Atoi(arg)
		if err != nil || n <= 0 {
			return 0, fmt.Errorf("spec: %s needs a positive %s, got %q in %q", kind, what, arg, s)
		}
		return n, nil
	}
	switch TopoKind(kind) {
	case TopoFatTree:
		k, err := intArg("arity (fattree:K)", rest)
		if err != nil {
			return TopoSpec{}, err
		}
		return TopoSpec{Kind: TopoFatTree, K: k}, nil
	case TopoLinear:
		n, err := intArg("length (linear:N)", rest)
		if err != nil {
			return TopoSpec{}, err
		}
		return TopoSpec{Kind: TopoLinear, K: n}, nil
	case TopoStar:
		n, err := intArg("size (star:N)", rest)
		if err != nil {
			return TopoSpec{}, err
		}
		return TopoSpec{Kind: TopoStar, K: n}, nil
	case TopoRing:
		parts := strings.Split(rest, ":")
		if rest == "" || len(parts) > 2 {
			return TopoSpec{}, fmt.Errorf("spec: ring wants ring:N[:CHORD], got %q", s)
		}
		n, err := intArg("size (ring:N)", parts[0])
		if err != nil {
			return TopoSpec{}, err
		}
		ts := TopoSpec{Kind: TopoRing, K: n}
		if len(parts) == 2 {
			chord, err := strconv.Atoi(parts[1])
			if err != nil || chord < 0 {
				return TopoSpec{}, fmt.Errorf("spec: ring chord must be a non-negative integer, got %q in %q", parts[1], s)
			}
			ts.Chord = chord
		}
		return ts, nil
	case TopoTwoRouters:
		if hasArg {
			return TopoSpec{}, fmt.Errorf("spec: two-routers takes no arguments, got %q", s)
		}
		return TopoSpec{Kind: TopoTwoRouters}, nil
	case TopoWAN:
		name, arg, hasMeshArg := strings.Cut(rest, ":")
		if name == "mesh" {
			if !hasMeshArg {
				return TopoSpec{}, fmt.Errorf("spec: wan:mesh needs a seed (wan:mesh:SEED[:POPS]), got %q", s)
			}
			seed, rest, err := seedFields("wan:mesh", "wan:mesh wants wan:mesh:SEED[:POPS]", arg, s, 2)
			if err != nil {
				return TopoSpec{}, err
			}
			ts := TopoSpec{Kind: TopoWANMesh, Seed: seed, PoPs: 16}
			if len(rest) == 1 {
				if ts.PoPs, err = positiveInt("wan:mesh", "PoP count", rest[0], s); err != nil {
					return TopoSpec{}, err
				}
			}
			return ts, nil
		}
		if name == "multi" {
			if !hasMeshArg {
				return TopoSpec{}, fmt.Errorf("spec: wan:multi needs a seed (wan:multi:SEED[:ASES[:POPS[:PREFIXES]]]), got %q", s)
			}
			seed, rest, err := seedFields("wan:multi", "wan:multi wants wan:multi:SEED[:ASES[:POPS[:PREFIXES]]]", arg, s, 4)
			if err != nil {
				return TopoSpec{}, err
			}
			ts := TopoSpec{Kind: TopoWANMultiAS, Seed: seed, ASes: 3, PoPs: 6}
			if len(rest) >= 1 {
				ases, err := strconv.Atoi(rest[0])
				if err != nil || ases < 2 {
					return TopoSpec{}, fmt.Errorf("spec: wan:multi AS count must be an integer >= 2, got %q in %q", rest[0], s)
				}
				ts.ASes = ases
			}
			if len(rest) >= 2 {
				if ts.PoPs, err = positiveInt("wan:multi", "PoP count", rest[1], s); err != nil {
					return TopoSpec{}, err
				}
			}
			if len(rest) == 3 {
				n, err := strconv.Atoi(rest[2])
				if err != nil || n < 0 {
					return TopoSpec{}, fmt.Errorf("spec: wan:multi prefix count must be a non-negative integer, got %q in %q", rest[2], s)
				}
				ts.FullTable = n
			}
			return ts, nil
		}
		for _, known := range topo.WANNames() {
			if name == known {
				return TopoSpec{Kind: TopoWAN, Name: name}, nil
			}
		}
		return TopoSpec{}, fmt.Errorf("spec: unknown WAN backbone %q (have %v, wan:mesh:SEED[:POPS], or wan:multi:SEED[:ASES[:POPS[:PREFIXES]]])", name, topo.WANNames())
	default:
		return TopoSpec{}, fmt.Errorf("spec: unknown topology kind %q (want %s)", kind, topoUsage)
	}
}

// WAN reports whether the topology is a WAN router mesh (which requires
// a BGP scenario).
func (ts TopoSpec) WAN() bool {
	return ts.Kind == TopoWAN || ts.Kind == TopoWANMesh || ts.Kind == TopoWANMultiAS
}

// Build constructs the topology graph. routers makes the forwarding
// nodes BGP routers (WAN kinds are always routers); delayScale scales
// WAN geographic delays, with 0 the zero-latency ablation.
func (ts TopoSpec) Build(routers bool, delayScale float64) (*horse.Topology, error) {
	opt := horse.SDN()
	if routers {
		opt = horse.BGP()
	}
	switch ts.Kind {
	case TopoFatTree:
		return horse.FatTree(ts.K, opt)
	case TopoLinear:
		return horse.Linear(ts.K, opt)
	case TopoStar:
		return horse.Star(ts.K, opt)
	case TopoRing:
		return horse.WANRing(ts.K, ts.Chord)
	case TopoTwoRouters:
		return horse.TwoRouters()
	case TopoWAN:
		return horse.WAN(ts.Name, horse.DelayScale(delayScale))
	case TopoWANMesh:
		return horse.WANMesh(ts.PoPs, ts.Seed, horse.DelayScale(delayScale))
	case TopoWANMultiAS:
		return horse.WANMultiAS(ts.ASes, ts.PoPs, ts.Seed,
			horse.DelayScale(delayScale), horse.FullTable(ts.FullTable))
	default:
		return nil, fmt.Errorf("spec: unknown topology kind %q", ts.Kind)
	}
}
