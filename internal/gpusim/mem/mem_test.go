package mem

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestBlockOf(t *testing.T) {
	cases := []struct {
		addr uint64
		want uint64
	}{{0, 0}, {63, 0}, {64, 1}, {4096, 64}}
	for _, c := range cases {
		if got := BlockOf(c.addr); got != c.want {
			t.Errorf("BlockOf(%d) = %d, want %d", c.addr, got, c.want)
		}
	}
}

func TestDefaultMapValid(t *testing.T) {
	if err := DefaultAddressMap().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []AddressMap{
		{Partitions: 0, ChunkBytes: 256, Banks: 16, BankGroups: 4, RowBytes: 2048},
		{Partitions: 6, ChunkBytes: 100, Banks: 16, BankGroups: 4, RowBytes: 2048},
		{Partitions: 6, ChunkBytes: 256, Banks: 16, BankGroups: 5, RowBytes: 2048},
		{Partitions: 6, ChunkBytes: 256, Banks: 16, BankGroups: 4, RowBytes: 100},
		{Partitions: 6, ChunkBytes: 256, Banks: 0, BankGroups: 4, RowBytes: 2048},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad map %d validated", i)
		}
	}
}

func TestDecodeInterleavesChunks(t *testing.T) {
	m := DefaultAddressMap()
	// Consecutive 256-byte chunks land on consecutive partitions.
	for chunk := 0; chunk < 12; chunk++ {
		loc := m.Decode(uint64(chunk) * 256)
		if loc.Partition != chunk%6 {
			t.Errorf("chunk %d on partition %d, want %d", chunk, loc.Partition, chunk%6)
		}
	}
	// Addresses within one chunk stay on one partition.
	base := uint64(7 * 256)
	want := m.Decode(base).Partition
	for off := uint64(0); off < 256; off += 64 {
		if got := m.Decode(base + off).Partition; got != want {
			t.Errorf("offset %d crossed partition: %d != %d", off, got, want)
		}
	}
}

func TestDecodeFieldsInRange(t *testing.T) {
	m := DefaultAddressMap()
	f := func(addr uint64) bool {
		addr %= 1 << 34
		loc := m.Decode(addr)
		return loc.Partition >= 0 && loc.Partition < m.Partitions &&
			loc.Bank >= 0 && loc.Bank < m.Banks &&
			loc.BankGroup == loc.Bank%m.BankGroups &&
			loc.Row >= 0 &&
			loc.Col >= 0 && loc.Col < m.RowBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeIsInjectiveOnBlocks(t *testing.T) {
	// Two different blocks must never map to the same
	// (partition, bank, row, col) tuple.
	m := DefaultAddressMap()
	seen := map[Location]uint64{}
	for b := uint64(0); b < 4096; b++ {
		addr := b * BlockBytes
		loc := m.Decode(addr)
		if prev, dup := seen[loc]; dup {
			t.Fatalf("blocks %d and %d collide at %+v", prev, b, loc)
		}
		seen[loc] = b
	}
}

func TestDecodeBankWalk(t *testing.T) {
	// Within one partition, consecutive local chunks walk banks
	// round-robin, spreading row activity across bank groups.
	m := DefaultAddressMap()
	for i := 0; i < 32; i++ {
		addr := uint64(i) * 256 * 6 // stay on partition 0
		loc := m.Decode(addr)
		if loc.Partition != 0 {
			t.Fatalf("addr %d not on partition 0", addr)
		}
		if loc.Bank != i%16 {
			t.Errorf("local chunk %d on bank %d, want %d", i, loc.Bank, i%16)
		}
	}
}

func TestAccessKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Error("AccessKind strings wrong")
	}
}

// TestRequestIsValueCopyable keeps Request a plain value: the
// simulator's request arena reuses its slots across launches without
// clearing them, so a slice/map/pointer field would keep what it
// points at alive in the arena's storage, or alias it between a stale
// slot and a fresh one. Adding one must consciously extend the arena —
// this test makes that omission loud.
func TestRequestIsValueCopyable(t *testing.T) {
	var check func(path string, ty reflect.Type)
	check = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s has reference kind %s; reused arena slots would alias it", path, ty.Kind())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			check(path+"[]", ty.Elem())
		}
	}
	check("Request", reflect.TypeOf(Request{}))
}
