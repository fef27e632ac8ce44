package cluster

// BatchCap is the capacity of a data batch: the driver's 4 KiB send
// threshold plus room for the unit that crosses it. The capacity is what
// marks a buffer as a batch (see Endpoint.Send): append growth never lands
// on it, since it is not an allocator size class, and no other code asks
// for it.
const BatchCap = 4<<10 + 4<<10/16

// freeBatches is the process's batch free list. A buffered channel rather
// than a sync.Pool: a put boxes nothing and a garbage collection does not
// empty it. Its size bounds what the list retains to about 2 MiB.
var freeBatches = make(chan []byte, (2<<20)/BatchCap)

// NewBatch returns an empty buffer of capacity BatchCap, a released one when
// the free list has one.
func NewBatch() []byte {
	select {
	case b := <-freeBatches:
		return b
	default:
		return make([]byte, 0, BatchCap)
	}
}

// Release hands a batch back to the free list once nothing references it.
// A buffer of any other capacity — a batch that outgrew BatchCap on a long
// unit, or a payload that never was a batch — is left to the garbage
// collector, as is a batch released while the list is full.
func Release(p []byte) {
	if cap(p) != BatchCap {
		return
	}
	select {
	case freeBatches <- p[:0]:
	default:
	}
}
