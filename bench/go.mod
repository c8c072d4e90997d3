module lsl/bench

go 1.22

require lsl v0.0.0

replace lsl => ../
