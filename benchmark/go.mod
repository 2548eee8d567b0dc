// The benchmark is a module of its own so that it builds from the files
// under benchmark/ and the repository beside it, whatever the root
// module's build file says. Its import path stays below graphmem/, which
// is what lets it import graphmem/internal/...
module graphmem/benchmark

go 1.22

require graphmem v0.0.0

replace graphmem => ../
