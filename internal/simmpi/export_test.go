package simmpi

// Outstanding counts the chaos path's pooled records not back on their
// free-lists: reliable-transmission records, wire records (attempt
// copies and parity shards) and FEC groups sealed but not yet recycled.
// Once a run without crashes has drained, every count must be zero.
func (w *World) Outstanding() (xmits, wires, groups int) {
	return w.xmitMade - len(w.xmitFree), w.wireMade - len(w.wireFree), w.groupsOut
}
