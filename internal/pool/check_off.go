//go:build !pooldebug

package pool

// checker is empty: records go straight back to the free-list.
type checker[T any] struct{}

func (checker[T]) take() *T     { return nil }
func (checker[T]) hold(*T) bool { return false }
func (checker[T]) held() int    { return 0 }

// Live checks that a record's entry point runs on a record someone
// holds. It compiles to nothing without pooldebug.
func (r *Ref) Live(string) {}

// Bufs is the checker hook of a buffer stack kept outside List (the
// comm segment pool's size classes). Without pooldebug, Hold hands the
// buffer straight back and CheckBuf does nothing.
type Bufs struct{}

// Hold takes a released buffer and returns the one to stack now.
func (*Bufs) Hold(_ string, b []byte) []byte { return b }

// CheckBuf verifies a buffer leaving a stack was not written while free.
func CheckBuf(string, []byte) {}
