package simmpi

// Outstanding counts the chaos path's pooled records not back on their
// free-lists: reliable-transmission records, wire records (attempt
// copies and parity shards) and FEC groups issued but not yet recycled.
// Once a run without crashes has drained, every count must be zero.
func (w *World) Outstanding() (xmits, wires, groups int) {
	if w.fec != nil {
		groups = w.fec.Outstanding()
	}
	return w.xmits.Outstanding(), w.wires.Outstanding(), groups
}
