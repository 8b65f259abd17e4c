// Package mem defines the global-memory address space model of the
// simulated GPU: the linear address space is interleaved among memory
// partitions in 256-byte chunks (Table I, following the GPGPU-Sim
// address mapping), and each partition spreads its chunks over DRAM
// banks and rows.
package mem

import "fmt"

// BlockBytes is the coalescing granularity: the cache-line-sized
// memory block (64 B) that the coalescing unit merges requests into.
// With 4-byte table entries this puts 16 consecutive entries in one
// block, the paper's R = 16.
const BlockBytes = 64

// BlockOf returns the memory-block key of an address: its 64-byte-
// aligned line number.
func BlockOf(addr uint64) uint64 { return addr / BlockBytes }

// AddressMap describes how linear addresses map onto the memory
// subsystem.
type AddressMap struct {
	// Partitions is the number of memory partitions (one per memory
	// controller); Table I uses 6.
	Partitions int
	// ChunkBytes is the interleaving granularity across partitions;
	// Table I uses 256.
	ChunkBytes int
	// Banks is the number of DRAM banks per partition (16).
	Banks int
	// BankGroups is the number of bank groups per partition (4).
	BankGroups int
	// RowBytes is the DRAM row (page) size per bank; 2 KiB is typical
	// for GDDR5.
	RowBytes int
}

// DefaultAddressMap returns the Table I configuration.
func DefaultAddressMap() AddressMap {
	return AddressMap{Partitions: 6, ChunkBytes: 256, Banks: 16, BankGroups: 4, RowBytes: 2048}
}

// Validate checks structural sanity of the map.
func (m AddressMap) Validate() error {
	switch {
	case m.Partitions <= 0:
		return fmt.Errorf("mem: partitions %d must be positive", m.Partitions)
	case m.ChunkBytes < BlockBytes || m.ChunkBytes%BlockBytes != 0:
		return fmt.Errorf("mem: chunk bytes %d must be a positive multiple of %d", m.ChunkBytes, BlockBytes)
	case m.Banks <= 0:
		return fmt.Errorf("mem: banks %d must be positive", m.Banks)
	case m.BankGroups <= 0 || m.Banks%m.BankGroups != 0:
		return fmt.Errorf("mem: bank groups %d must divide banks %d", m.BankGroups, m.Banks)
	case m.RowBytes < m.ChunkBytes || m.RowBytes%m.ChunkBytes != 0:
		return fmt.Errorf("mem: row bytes %d must be a multiple of chunk bytes %d", m.RowBytes, m.ChunkBytes)
	}
	return nil
}

// Location is the physical placement of an address.
type Location struct {
	Partition int // memory controller
	Bank      int // bank within the partition
	BankGroup int // bank group of the bank
	Row       int // DRAM row within the bank
	Col       int // byte offset within the row
}

// Decode maps a linear address to its physical location. Chunks are
// interleaved round-robin over partitions; within a partition,
// consecutive chunks walk the banks round-robin (spreading accesses
// across bank groups) and then advance the row.
func (m AddressMap) Decode(addr uint64) Location {
	chunk := addr / uint64(m.ChunkBytes)
	offset := int(addr % uint64(m.ChunkBytes))
	partition := int(chunk % uint64(m.Partitions))
	local := chunk / uint64(m.Partitions)
	bank := int(local % uint64(m.Banks))
	chunksPerRow := m.RowBytes / m.ChunkBytes
	rowChunk := local / uint64(m.Banks)
	row := int(rowChunk / uint64(chunksPerRow))
	col := int(rowChunk%uint64(chunksPerRow))*m.ChunkBytes + offset
	return Location{
		Partition: partition,
		Bank:      bank,
		BankGroup: bank % m.BankGroups,
		Row:       row,
		Col:       col,
	}
}

// AccessKind distinguishes loads from stores.
type AccessKind uint8

const (
	// Load is a global-memory read.
	Load AccessKind = iota
	// Store is a global-memory write.
	Store
)

func (k AccessKind) String() string {
	if k == Store {
		return "store"
	}
	return "load"
}

// Request is one coalesced memory transaction in flight: a 64-byte
// block access produced by the coalescing unit, tagged with enough
// provenance for statistics and for routing the reply.
type Request struct {
	// Addr is the block-aligned byte address.
	Addr uint64
	// Kind is Load or Store.
	Kind AccessKind
	// SM and Warp identify the requester (Warp is the global warp id).
	SM, Warp int
	// Round tags the AES round (1-based; 0 for non-round traffic such
	// as plaintext loads), used to attribute per-round access counts.
	Round int
	// Arrived is the core cycle the request reaches its memory
	// partition, and Done the cycle its data is ready there (an L2
	// hit's, or the DRAM's): both are set when the request leaves its
	// SM.
	Arrived, Done int64
	// Loc is the pre-decoded physical location of Addr, computed once
	// when the LD/ST unit creates the request so neither the
	// interconnect router nor the DRAM controller re-derives it.
	Loc Location
}
