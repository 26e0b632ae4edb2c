module cartcc/benchmark

go 1.24

require cartcc v0.0.0

replace cartcc => ../
