"""Recovery of planted node signs from censored edge observations on sparse graphs."""
