package sched

// deps is the dependence rule every scheduler in this package derives its
// task edges from: a task depends on the last writer of every handle it
// reads or writes (RAW, WAW) and, for every handle it writes, on the
// readers since that writer (WAR). N is the caller's name for a task — a
// runtime node, a recorded graph index, a frontier node — and each caller
// turns the predecessors link reports into its own edges.
//
// The zero value is ready to use. deps is not safe for concurrent use;
// every caller already serializes its submissions.
type deps[N comparable] struct {
	last  map[Handle]*handleDeps[N]
	preds []N // link's result, reused across calls
}

// handleDeps is the dependence frontier of one handle.
type handleDeps[N comparable] struct {
	writer  N
	written bool // writer is set
	readers []N  // readers since writer
}

// link registers task n's accesses and returns its distinct predecessors
// in discovery order: per read handle its last writer, then per written
// handle its last writer and the readers since. A handle in both reads and
// writes is a read-modify-write. The returned slice is valid until the
// next call.
func (d *deps[N]) link(n N, reads, writes []Handle) []N {
	d.preds = d.preds[:0]
	for _, h := range reads {
		hd := d.handle(h)
		if hd.written {
			d.add(n, hd.writer)
		}
		if !handleIn(writes, h) {
			hd.readers = append(hd.readers, n)
		}
	}
	for _, h := range writes {
		hd := d.handle(h)
		if hd.written {
			d.add(n, hd.writer)
		}
		for _, rd := range hd.readers {
			d.add(n, rd)
		}
		hd.writer, hd.written = n, true
		hd.readers = hd.readers[:0]
	}
	return d.preds
}

// add appends p to n's predecessors unless it is n itself or already
// there. Predecessor lists are tiny, so the dedupe is a linear scan.
func (d *deps[N]) add(n, p N) {
	if p == n {
		return
	}
	for _, q := range d.preds {
		if q == p {
			return
		}
	}
	d.preds = append(d.preds, p)
}

func (d *deps[N]) handle(h Handle) *handleDeps[N] {
	hd := d.last[h]
	if hd == nil {
		if d.last == nil {
			d.last = make(map[Handle]*handleDeps[N])
		}
		hd = &handleDeps[N]{}
		d.last[h] = hd
	}
	return hd
}

// handleIn reports whether h appears in hs. Write lists are tiny (one or
// two handles), so membership is a linear scan instead of a map.
func handleIn(hs []Handle, h Handle) bool {
	for _, x := range hs {
		if x == h {
			return true
		}
	}
	return false
}
