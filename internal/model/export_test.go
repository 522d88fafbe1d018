package model

// ChunkBytes is chunkBytes, for the external tests of ReadDataset.
const ChunkBytes = chunkBytes

// CommentChunk is commentChunk, for the external tests of NewState.
const CommentChunk = commentChunk
