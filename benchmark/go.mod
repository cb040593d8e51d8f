module mpgraph/benchmark

go 1.22

require mpgraph v0.0.0

replace mpgraph => ../
