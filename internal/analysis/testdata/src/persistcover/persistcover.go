// Package fixture exercises the persistcover analyzer: a pmem write with no
// persist barrier before return is the missing-clwb bug that breaks crash
// durability.
package fixture

import "pmnet/internal/pmem"

func badWrite(d *pmem.Device, p []byte) error {
	return d.WriteAt(p, 0) // want "never persisted"
}

type wrapped struct {
	dev *pmem.Device
}

// Writes through a struct field resolve to the same Device method.
func (w wrapped) badFieldWrite(p []byte) {
	_ = w.dev.WriteAt(p, 0) // want "never persisted"
}

func okWritePersist(d *pmem.Device, p []byte) error {
	if err := d.WriteAt(p, 0); err != nil {
		return err
	}
	return d.Persist(0, len(p))
}

func okWritePersistAll(d *pmem.Device, p []byte) {
	_ = d.WriteAt(p, 64)
	d.PersistAll()
}

// okLoopThenBarrier: one barrier covering a batch of writes satisfies the
// intraprocedural check.
func okLoopThenBarrier(d *pmem.Device, chunks [][]byte) {
	off := 0
	for _, c := range chunks {
		_ = d.WriteAt(c, off)
		off += len(c)
	}
	_ = d.Persist(0, off)
}

func okReadOnly(d *pmem.Device, p []byte) error {
	return d.ReadAt(p, 0)
}

// okDelegated documents the write-many-persist-once helper pattern: the
// caller owns the barrier, and the directive records that contract.
func okDelegated(d *pmem.Device, p []byte) error {
	//pmnetlint:ignore persistcover fixture: barrier delegated to caller for write batching
	return d.WriteAt(p, 128)
}

// okWriteThrough: a write-through is a write and the persist of its range.
func okWriteThrough(d *pmem.Device, p []byte) error {
	return d.WriteThrough(p, 0)
}

// badWriteBesideWriteThrough: a write-through persists its own range only,
// so it is no barrier for a bare WriteAt beside it.
func badWriteBesideWriteThrough(d *pmem.Device, p []byte) {
	_ = d.WriteThroughGroup(p, 0, 2)
	_ = d.WriteAt(p, 64) // want "never persisted"
}
