package model

// ChunkBytes is chunkBytes, for the external tests of ReadDataset.
const ChunkBytes = chunkBytes
