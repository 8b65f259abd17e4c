package gpusim

// ArenaChunks reports how many request-arena chunks the GPU holds.
func (g *GPU) ArenaChunks() int { return len(g.arena.chunks) }

// ReqChunk is the request-arena chunk size.
const ReqChunk = reqChunk
