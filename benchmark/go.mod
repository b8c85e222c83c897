module dmac/benchmark

go 1.22

require dmac v0.0.0

replace dmac => ../
