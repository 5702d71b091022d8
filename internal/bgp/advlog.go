package bgp

import "slices"

// advBatch is what a session has queued for its peer since the last flush:
// a log, not a table. Every queued (prefix, path) is one appended integer,
// pfxKey<<advRunBits | run, where a run is a stretch of consecutive entries
// queued with the same path and runs[run] is that path (nil withdraws). Run
// numbers grow with time, so of two entries for one prefix the later one is
// the larger integer: sorting the log puts each prefix's entries together,
// in (address, length) order, the last write last. A burst queues prefixes
// in nearly that order already — a hash map handed them back shuffled —
// and what a flush derives from a path it derives once per run.
//
// The log is bounded by what it stands for. When it reaches twice the
// number of distinct prefixes the last compaction found (or advCompactMin),
// it is settled in place and its runs renumbered from zero, so a prefix
// that oscillates inside one advertisement window costs its one entry, not
// one per flap; the same renumbering is what keeps the run field from
// overflowing.
type advBatch struct {
	log   []uint64
	runs  []*Path
	limit int // len(log) at which to compact; advCompactMin if that is larger
}

const (
	// advRunBits is the width of an entry's run field, below the pfxKey.
	advRunBits = 64 - pfxKeyBits
	advRunMask = 1<<advRunBits - 1
	// advCompactMin is the shortest log worth compacting.
	advCompactMin = 1024
	// advKeep is the largest log capacity, in entries, a session keeps
	// between windows.
	advKeep = 4096
)

// add queues path (nil = withdraw) for the prefix.
func (b *advBatch) add(k pfxKey, path *Path) {
	if len(b.log) >= max(b.limit, advCompactMin) || len(b.runs) > advRunMask {
		b.compact()
	}
	if n := len(b.runs); n == 0 || b.runs[n-1] != path {
		if n > advRunMask {
			// Every run that survives a compaction still decides some prefix:
			// 2^24 of them are as many prefixes pending toward one peer, no
			// two neighbours sharing a path — sixteen Internet tables.
			panic("bgp: more than 2^24 distinct advertisement runs pending for one peer")
		}
		b.runs = append(b.runs, path)
	}
	if len(b.log) == cap(b.log) {
		// Twice the room, not append's quarter more: a table's worth of
		// entries is copied twice over on the way up instead of five times.
		b.log = slices.Grow(b.log, max(len(b.log), 16))
	}
	b.log = append(b.log, uint64(k)<<advRunBits|uint64(len(b.runs)-1))
}

// expect makes room for n more entries on distinct prefixes, in one
// allocation and without a compaction on the way.
func (b *advBatch) expect(n int) {
	b.log = slices.Grow(b.log, n)
	b.limit = max(b.limit, 2*(len(b.log)+n))
}

// settleAdv sorts a log and keeps each prefix's last write: what is left
// is one entry per prefix, in (address, length) order. It works in place.
func settleAdv(log []uint64) []uint64 {
	slices.Sort(log)
	out := log[:0]
	for i, e := range log {
		if i+1 == len(log) || log[i+1]>>advRunBits != e>>advRunBits {
			out = append(out, e)
		}
	}
	return out
}

// compact settles the log and renumbers its runs as if the surviving
// entries had just been queued in their sorted order: which of two
// different prefixes was queued first decides nothing, and whatever is
// queued from here on is numbered above them all.
func (b *advBatch) compact() {
	b.log = settleAdv(b.log)
	runs := make([]*Path, 0, min(len(b.runs), len(b.log)))
	for i, e := range b.log {
		path := b.runs[e&advRunMask]
		if n := len(runs); n == 0 || runs[n-1] != path {
			runs = append(runs, path)
		}
		b.log[i] = e&^advRunMask | uint64(len(runs)-1)
	}
	b.runs = runs
	b.limit = 2 * len(b.log)
}

// reset empties the batch once its flush is done with it, keeping the
// buffers for a later window — unless they grew to a full table's worth,
// or every session that ever sent one would hold on to eight bytes a
// prefix.
func (b *advBatch) reset() {
	if cap(b.log) > advKeep {
		*b = advBatch{}
		return
	}
	clear(b.runs) // the kept buffer pins no path
	*b = advBatch{log: b.log[:0], runs: b.runs[:0]}
}
