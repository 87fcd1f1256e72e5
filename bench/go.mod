module iqn/bench

go 1.22

require iqn v0.0.0

replace iqn => ../
