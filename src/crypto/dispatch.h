#ifndef FRESQUE_CRYPTO_DISPATCH_H_
#define FRESQUE_CRYPTO_DISPATCH_H_

namespace fresque {
namespace crypto {
namespace internal {

/// True when the environment variable `FRESQUE_FORCE_SOFT_CRYPTO` is set
/// to anything but "" or "0": AES and SHA-256 then both run their portable
/// paths, e.g. to reproduce a result from a machine without the hardware
/// ISA. Read when each primitive first picks its backend.
bool ForceSoftCrypto();

}  // namespace internal
}  // namespace crypto
}  // namespace fresque

#endif  // FRESQUE_CRYPTO_DISPATCH_H_
