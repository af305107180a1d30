//! PGM/PPM (netpbm) reading and writing.
//!
//! The synthetic databases live in memory, but every intermediate
//! artifact of the pipeline — generated scenes, sampled `h × h` matrices,
//! learned weight maps — is inspectable by dumping it as a PGM/PPM file.
//! Both the ASCII (`P2`/`P3`) and binary (`P5`/`P6`) variants are
//! supported, with `maxval` up to 255.
//!
//! Values are clamped into `[0, maxval]` on write; reading produces `f32`
//! intensities in `[0, 255]` scaled from the file's `maxval`.

use std::io::{BufRead, Write};
use std::path::Path;

use crate::error::ImageError;
use crate::gray::GrayImage;
use crate::rgb::RgbImage;

const MAXVAL: u32 = 255;

/// Writes a gray image as binary PGM (`P5`).
///
/// # Errors
/// Propagates I/O failures.
pub fn write_pgm<W: Write>(image: &GrayImage, mut w: W) -> Result<(), ImageError> {
    writeln!(w, "P5\n{} {}\n{}", image.width(), image.height(), MAXVAL)?;
    let bytes: Vec<u8> = image
        .pixels()
        .iter()
        .map(|&v| v.clamp(0.0, 255.0).round() as u8)
        .collect();
    w.write_all(&bytes)?;
    Ok(())
}

/// Writes a gray image as binary PGM to a filesystem path.
///
/// # Errors
/// Propagates I/O failures.
pub fn save_pgm<P: AsRef<Path>>(image: &GrayImage, path: P) -> Result<(), ImageError> {
    let file = std::fs::File::create(path)?;
    write_pgm(image, std::io::BufWriter::new(file))
}

/// Writes an RGB image as binary PPM (`P6`).
///
/// # Errors
/// Propagates I/O failures.
pub(crate) fn write_ppm<W: Write>(image: &RgbImage, mut w: W) -> Result<(), ImageError> {
    writeln!(w, "P6\n{} {}\n{}", image.width(), image.height(), MAXVAL)?;
    let bytes: Vec<u8> = image
        .channels()
        .iter()
        .map(|&v| v.clamp(0.0, 255.0).round() as u8)
        .collect();
    w.write_all(&bytes)?;
    Ok(())
}

/// Writes an RGB image as binary PPM to a filesystem path.
///
/// # Errors
/// Propagates I/O failures.
pub fn save_ppm<P: AsRef<Path>>(image: &RgbImage, path: P) -> Result<(), ImageError> {
    let file = std::fs::File::create(path)?;
    write_ppm(image, std::io::BufWriter::new(file))
}

/// Token scanner for PNM headers: skips whitespace and `#` comments.
struct Tokens<R: BufRead> {
    reader: R,
}

impl<R: BufRead> Tokens<R> {
    fn new(reader: R) -> Self {
        Self { reader }
    }

    fn next_byte(&mut self) -> Result<Option<u8>, ImageError> {
        let mut b = [0u8; 1];
        let n = self.reader.read(&mut b)?;
        Ok(if n == 0 { None } else { Some(b[0]) })
    }

    /// Reads the next whitespace-delimited token, skipping comments.
    fn token(&mut self) -> Result<String, ImageError> {
        let mut tok = Vec::new();
        loop {
            match self.next_byte()? {
                None => break,
                Some(b'#') if tok.is_empty() => {
                    // Skip to end of line.
                    loop {
                        match self.next_byte()? {
                            None | Some(b'\n') => break,
                            Some(_) => {}
                        }
                    }
                }
                Some(c) if c.is_ascii_whitespace() => {
                    if !tok.is_empty() {
                        break;
                    }
                }
                Some(c) => tok.push(c),
            }
        }
        if tok.is_empty() {
            return Err(ImageError::PnmParse("unexpected end of header".into()));
        }
        String::from_utf8(tok).map_err(|_| ImageError::PnmParse("non-UTF8 header token".into()))
    }

    fn number(&mut self) -> Result<u32, ImageError> {
        let t = self.token()?;
        t.parse::<u32>()
            .map_err(|_| ImageError::PnmParse(format!("expected a number, found {t:?}")))
    }

    /// Reads exactly `n` raw bytes (for binary rasters).
    fn raw(&mut self, n: usize) -> Result<Vec<u8>, ImageError> {
        let mut buf = vec![0u8; n];
        self.reader.read_exact(&mut buf)?;
        Ok(buf)
    }
}

fn parse_header<R: BufRead>(tokens: &mut Tokens<R>) -> Result<(usize, usize, u32), ImageError> {
    let width = tokens.number()? as usize;
    let height = tokens.number()? as usize;
    let maxval = tokens.number()?;
    if maxval == 0 || maxval > 255 {
        return Err(ImageError::PnmParse(format!("unsupported maxval {maxval}")));
    }
    Ok((width, height, maxval))
}

/// Reads a PGM (`P2` or `P5`) stream into a gray image with intensities
/// rescaled to `[0, 255]`.
///
/// # Errors
/// Returns [`ImageError::PnmParse`] for malformed data and propagates
/// I/O failures.
pub fn read_pgm<R: BufRead>(reader: R) -> Result<GrayImage, ImageError> {
    let mut tokens = Tokens::new(reader);
    let magic = tokens.token()?;
    let (width, height, maxval) = match magic.as_str() {
        "P2" | "P5" => parse_header(&mut tokens)?,
        other => {
            return Err(ImageError::PnmParse(format!(
                "not a PGM stream (magic {other:?})"
            )))
        }
    };
    let scale = 255.0 / maxval as f32;
    let n = width
        .checked_mul(height)
        .ok_or(ImageError::InvalidDimensions { width, height })?;
    let data = if magic == "P5" {
        tokens
            .raw(n)?
            .into_iter()
            .map(|b| f32::from(b) * scale)
            .collect()
    } else {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(tokens.number()? as f32 * scale);
        }
        v
    };
    GrayImage::from_vec(width, height, data)
}

/// Reads a PGM file from a filesystem path.
///
/// # Errors
/// Same conditions as [`read_pgm`].
pub fn load_pgm<P: AsRef<Path>>(path: P) -> Result<GrayImage, ImageError> {
    let file = std::fs::File::open(path)?;
    read_pgm(std::io::BufReader::new(file))
}

/// Reads a PPM (`P3` or `P6`) stream into an RGB image with channels
/// rescaled to `[0, 255]`.
///
/// # Errors
/// Returns [`ImageError::PnmParse`] for malformed data and propagates
/// I/O failures.
pub(crate) fn read_ppm<R: BufRead>(reader: R) -> Result<RgbImage, ImageError> {
    let mut tokens = Tokens::new(reader);
    let magic = tokens.token()?;
    let (width, height, maxval) = match magic.as_str() {
        "P3" | "P6" => parse_header(&mut tokens)?,
        other => {
            return Err(ImageError::PnmParse(format!(
                "not a PPM stream (magic {other:?})"
            )))
        }
    };
    let scale = 255.0 / maxval as f32;
    let n = width
        .checked_mul(height)
        .and_then(|p| p.checked_mul(3))
        .ok_or(ImageError::InvalidDimensions { width, height })?;
    let data = if magic == "P6" {
        tokens
            .raw(n)?
            .into_iter()
            .map(|b| f32::from(b) * scale)
            .collect()
    } else {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(tokens.number()? as f32 * scale);
        }
        v
    };
    RgbImage::from_vec(width, height, data)
}

/// Reads a PPM file from a filesystem path.
///
/// # Errors
/// Returns [`ImageError::PnmParse`] for malformed data and propagates
/// I/O failures.
pub fn load_ppm<P: AsRef<Path>>(path: P) -> Result<RgbImage, ImageError> {
    let file = std::fs::File::open(path)?;
    read_ppm(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn ramp(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| ((y * w + x) % 256) as f32).unwrap()
    }

    #[test]
    fn pgm_binary_round_trip() {
        let img = ramp(13, 7);
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        let back = read_pgm(Cursor::new(buf)).unwrap();
        assert_eq!(back.width(), 13);
        assert_eq!(back.height(), 7);
        for (a, b) in img.pixels().iter().zip(back.pixels()) {
            assert!(
                (a - b).abs() < 0.51,
                "round trip must be lossless to 8 bits"
            );
        }
    }

    #[test]
    fn ppm_binary_round_trip() {
        let img = RgbImage::from_fn(5, 4, |x, y| {
            [(x * 40) as f32, (y * 60) as f32, ((x + y) * 20) as f32]
        })
        .unwrap();
        let mut buf = Vec::new();
        write_ppm(&img, &mut buf).unwrap();
        let back = read_ppm(Cursor::new(buf)).unwrap();
        for (a, b) in img.channels().iter().zip(back.channels()) {
            assert!((a - b).abs() < 0.51);
        }
    }

    #[test]
    fn ascii_pgm_parses() {
        let src = "P2\n# a comment\n3 2\n255\n0 10 20\n30 40 50\n";
        let img = read_pgm(Cursor::new(src)).unwrap();
        assert_eq!(img.pixels(), &[0.0, 10.0, 20.0, 30.0, 40.0, 50.0]);
    }

    #[test]
    fn ascii_ppm_parses_with_comments() {
        let src = "P3 # rgb\n2 1 # size\n255\n1 2 3  4 5 6\n";
        let img = read_ppm(Cursor::new(src)).unwrap();
        assert_eq!(img.get(0, 0), [1.0, 2.0, 3.0]);
        assert_eq!(img.get(1, 0), [4.0, 5.0, 6.0]);
    }

    #[test]
    fn maxval_rescaling() {
        let src = "P2\n2 1\n15\n0 15\n";
        let img = read_pgm(Cursor::new(src)).unwrap();
        assert_eq!(img.pixels(), &[0.0, 255.0]);
    }

    #[test]
    fn wrong_magic_rejected() {
        assert!(read_pgm(Cursor::new("P6\n1 1\n255\nxyz")).is_err());
        assert!(read_ppm(Cursor::new("P5\n1 1\n255\nx")).is_err());
        assert!(read_pgm(Cursor::new("JUNK")).is_err());
    }

    #[test]
    fn truncated_raster_rejected() {
        let src = b"P5\n4 4\n255\nab".to_vec(); // 2 bytes instead of 16
        assert!(read_pgm(Cursor::new(src)).is_err());
    }

    #[test]
    fn zero_maxval_rejected() {
        assert!(read_pgm(Cursor::new("P2\n1 1\n0\n0\n")).is_err());
    }

    #[test]
    fn out_of_range_values_clamped_on_write() {
        let img = GrayImage::from_vec(2, 1, vec![-10.0, 300.0]).unwrap();
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        let back = read_pgm(Cursor::new(buf)).unwrap();
        assert_eq!(back.pixels(), &[0.0, 255.0]);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("milr_pnm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ramp.pgm");
        let img = ramp(9, 9);
        save_pgm(&img, &path).unwrap();
        let back = load_pgm(&path).unwrap();
        assert_eq!(back.width(), 9);
        std::fs::remove_file(&path).ok();
    }
}
